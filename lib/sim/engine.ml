(* Pending events sit in a bucket queue indexed by tick: a calendar queue
   (Brown, CACM 31(10), 1988) with one bucket per instant.  An instant in
   the window [base, base + width) owns the bucket [ring.(tick land mask)],
   a circular list of its events reached through the newest one, whose
   [next] is the oldest.  Later instants wait in [overflow], sorted by
   time and, within an instant, in scheduling order.  An event is always
   appended behind every event of its instant, so each bucket is FIFO and
   firing bucket heads in tick order is firing in (time, scheduling
   order): a sequence number would only restate bucket position.

   Invariant: [base <= clock] and [base <=] every pending time.  A new
   event (time >= clock) therefore never lands before the window.  Only
   firing the least event moves [base]: to that event's instant, which
   the clock then reaches.  A [run ~until] that stops short leaves it
   alone.

   [width] is a power of two, so a mask finds the bucket, and the first
   above the delays the protocols schedule: link delays of 1-10 ticks,
   retry deadlines of +60 and backoffs of at most 69.  Under 0.1% of the
   benchmark workloads' events take the overflow path.

   Events are not records but slots: an index into three parallel
   arrays, [time], [next] and [action], that grow together.  Free slots
   wait on the stack [free.(0 .. n_free - 1)]; a full pool doubles.
   Bucket links are indices, so threading a bucket writes only into an
   int array: no write barrier, and no young event pinned by an old one
   through the remembered set, which is what a linked record costs on
   every enqueue once the bucket's tail has been promoted.  The ring
   holds each bucket's tail slot, or [none] when it is empty.

   A slot is queued exactly when its [next] is not [none]: a ring slot
   links into its bucket, an overflow slot points at itself.  A queued
   slot sits in the ring when its instant is below [base + width] and in
   the overflow otherwise.  Firing takes the slot out of its bucket,
   resets its action to [ignore], returns the slot to the free stack and
   only then runs the action, so the pool holds no closure of an event
   that has fired and an action that schedules reuses its own slot.

   A timer borrows a slot while it is queued and returns it when it fires
   or is cancelled; it keeps its own [due].  Re-arming a queued timer
   moves the same slot to the tail of its new instant.  A timer that is
   dropped unqueued, or whose last arming has fired, holds no slot, so
   the pool never keeps it alive.

   A recurring action is registered once, in [registered], and queued by
   its index: the slot keeps the index in a fourth array, [handle], and
   its [action] stays [ignore].  Queueing and firing one therefore
   store only ints, where a closure costs a pointer store into [action]
   on taking the slot and another on releasing it, each a write barrier
   once the array is old.  A free slot has [handle = none] and
   [action = ignore]; firing restores whichever of the two it used.
   Registered actions live as long as the engine. *)

let width = 128

let mask = width - 1

let none = -1

let initial_slots = 32

let initial_registered = 16

type t = {
  mutable clock : Vtime.t;
  mutable base : int;
  ring : int array; (* each bucket: its newest slot, or [none] *)
  mutable in_ring : int;
  mutable overflow : int list; (* slots of instants >= base + width *)
  mutable pending : int;
  mutable time : Vtime.t array; (* per slot: its instant while queued *)
  mutable next : int array;
      (* per slot: the next slot of its bucket (the tail's is the head),
         itself in the overflow, [none] when not queued *)
  mutable action : (unit -> unit) array; (* per slot; [ignore] when free *)
  mutable handle : int array;
      (* per slot: the registered action it runs, or [none] for [action] *)
  mutable free : int array; (* [free.(0 .. n_free - 1)]: the free slots *)
  mutable n_free : int;
  mutable registered : (unit -> unit) array; (* the recurring actions *)
  mutable n_registered : int;
  rng : Rng.t;
  metrics : Obs.Metrics.t;
  hub : Obs.Hub.t;
  spans : Obs.Trace_ctx.t;
}

let create ~rng () =
  {
    clock = Vtime.zero;
    base = 0;
    ring = Array.make width none;
    in_ring = 0;
    overflow = [];
    pending = 0;
    time = Array.make initial_slots Vtime.zero;
    next = Array.make initial_slots none;
    action = Array.make initial_slots ignore;
    handle = Array.make initial_slots none;
    free = Array.init initial_slots (fun i -> initial_slots - 1 - i);
    n_free = initial_slots;
    registered = Array.make initial_registered ignore;
    n_registered = 0;
    rng;
    metrics = Obs.Metrics.create ();
    hub = Obs.Hub.create ();
    spans = Obs.Trace_ctx.create ();
  }

let now t = t.clock

let rng t = t.rng

let metrics t = t.metrics

let hub t = t.hub

let spans t = t.spans

(* Double the pool; the new slots go on the free stack, lowest on top. *)
let grow t =
  let cap = Array.length t.next in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.time <- extend t.time Vtime.zero;
  t.next <- extend t.next none;
  t.action <- extend t.action ignore;
  t.handle <- extend t.handle none;
  t.free <-
    Array.init (2 * cap) (fun i -> if i < cap then (2 * cap) - 1 - i else 0);
  t.n_free <- cap

(* A free slot, not yet queued: its action is [ignore], its handle
   [none]. *)
let take_free t =
  if t.n_free = 0 then grow t;
  t.n_free <- t.n_free - 1;
  t.free.(t.n_free)

(* A free slot holding [action], not yet queued. *)
let take t action =
  let s = take_free t in
  t.action.(s) <- action;
  s

let push_free t s =
  t.free.(t.n_free) <- s;
  t.n_free <- t.n_free + 1

(* Return a dequeued slot that holds a closure, dropping it. *)
let release t s =
  t.action.(s) <- ignore;
  push_free t s

(* Append [s] to the bucket of its instant [tick], which must be in the
   window. *)
let append t s tick =
  let i = tick land mask in
  let tail = t.ring.(i) in
  if tail = none then t.next.(s) <- s
  else begin
    t.next.(s) <- t.next.(tail);
    t.next.(tail) <- s
  end;
  t.ring.(i) <- s;
  t.in_ring <- t.in_ring + 1

(* [s] is the newest event, so it goes after every event of its instant. *)
let rec insert t s = function
  | e :: rest when Vtime.( <= ) t.time.(e) t.time.(s) -> e :: insert t s rest
  | later -> s :: later

(* Queue [s], which is not queued, at [time] (clamped to the clock). *)
let enqueue t s time =
  let time = Vtime.max time t.clock in
  let tick = Vtime.to_int time in
  t.time.(s) <- time;
  t.pending <- t.pending + 1;
  if tick < t.base + width then append t s tick
  else begin
    t.next.(s) <- s;
    t.overflow <- insert t s t.overflow
  end

let schedule_at t time action = enqueue t (take t action) time

let schedule t ~delay action =
  schedule_at t (Vtime.add t.clock (Int.max delay 0)) action

type recurring = int

let recurring t action =
  let n = t.n_registered in
  if n = Array.length t.registered then begin
    let b = Array.make (2 * n) ignore in
    Array.blit t.registered 0 b 0 n;
    t.registered <- b
  end;
  t.registered.(n) <- action;
  t.n_registered <- n + 1;
  n

let schedule_recurring_at t time r =
  let s = take_free t in
  t.handle.(s) <- r;
  enqueue t s time

let schedule_recurring t ~delay r =
  schedule_recurring_at t (Vtime.add t.clock (Int.max delay 0)) r

(* A top-level scan taking everything it uses as arguments: a local
   closure over [t] would be allocated on every event. *)
let rec first_full t tick =
  if t.ring.(tick land mask) = none then first_full t (tick + 1) else tick

(* The instant of the least pending event.  Requires [t.pending > 0]. *)
let least_tick t =
  if t.in_ring = 0 then
    match t.overflow with s :: _ -> Vtime.to_int t.time.(s) | [] -> t.base
  else first_full t t.base

let rec refill t = function
  | s :: rest when Vtime.to_int t.time.(s) < t.base + width ->
    append t s (Vtime.to_int t.time.(s));
    refill t rest
  | rest -> t.overflow <- rest

(* Unlink and return the head of the bucket at [tick], the least pending
   instant.  The window first moves to start at [tick], pulling the
   overflow events it now covers into the ring in order; their buckets
   alias the instants before [tick], which are empty. *)
let pop_least t tick =
  if tick <> t.base then begin
    t.base <- tick;
    refill t t.overflow
  end;
  let i = tick land mask in
  let tail = t.ring.(i) in
  let head = t.next.(tail) in
  if head = tail then t.ring.(i) <- none else t.next.(tail) <- t.next.(head);
  t.next.(head) <- none;
  t.in_ring <- t.in_ring - 1;
  t.pending <- t.pending - 1;
  head

(* The single place an event is consumed: run and step both funnel
   through here, so they cannot disagree on clock handling.  The slot is
   free before the action runs. *)
let fire_slot t s =
  t.clock <- Vtime.max t.clock t.time.(s);
  let r = t.handle.(s) in
  if r = none then begin
    let action = t.action.(s) in
    release t s;
    action ()
  end
  else begin
    t.handle.(s) <- none;
    push_free t s;
    t.registered.(r) ()
  end

let step t =
  t.pending > 0
  && begin
    fire_slot t (pop_least t (least_tick t));
    true
  end

let run ?until ?(max_events = max_int) t =
  let last = match until with Some u -> Vtime.to_int u | None -> max_int in
  let fired = ref 0 in
  let continue = ref true in
  while !continue && !fired < max_events do
    if t.pending = 0 then continue := false
    else begin
      (* Peek first: an event past the deadline stays exactly where it is. *)
      let tick = least_tick t in
      if tick > last then continue := false
      else begin
        incr fired;
        fire_slot t (pop_least t tick)
      end
    end
  done;
  match until with
  | Some u when Vtime.( < ) t.clock u && !fired < max_events -> t.clock <- u
  | _ -> ()

let pending t = t.pending

let quiescent t = t.pending = 0

type timer = {
  engine : t;
  mutable slot : int; (* the borrowed slot while queued, else [none] *)
  mutable due : Vtime.t;
  fire : unit -> unit; (* the slot's action: forgets the slot, then runs *)
}

let timer t action =
  let rec tm =
    {
      engine = t;
      slot = none;
      due = Vtime.zero;
      fire =
        (fun () ->
          tm.slot <- none;
          action ());
    }
  in
  tm

let due tm = tm.due

let rec prev_in_bucket t s prev =
  let p = t.next.(prev) in
  if p = s then prev else prev_in_bucket t s p

(* Unlink a queued [s] from wherever it sits; the slot stays taken. *)
let unlink t s =
  let tick = Vtime.to_int t.time.(s) in
  if tick < t.base + width then begin
    let i = tick land mask in
    let tail = t.ring.(i) in
    if t.next.(s) = s then t.ring.(i) <- none
    else begin
      let prev = prev_in_bucket t s tail in
      t.next.(prev) <- t.next.(s);
      if s = tail then t.ring.(i) <- prev
    end;
    t.in_ring <- t.in_ring - 1
  end
  else t.overflow <- List.filter (fun e -> e <> s) t.overflow;
  t.next.(s) <- none;
  t.pending <- t.pending - 1

let cancel tm =
  let s = tm.slot in
  if s <> none then begin
    let t = tm.engine in
    unlink t s;
    release t s;
    tm.slot <- none
  end

let arm tm time =
  let t = tm.engine in
  let s =
    if tm.slot = none then take t tm.fire
    else begin
      unlink t tm.slot;
      tm.slot
    end
  in
  tm.slot <- s;
  enqueue t s time;
  tm.due <- t.time.(s)
