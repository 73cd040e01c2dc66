(* Pending events sit in a bucket queue indexed by tick: a calendar queue
   (Brown, CACM 31(10), 1988) with one bucket per instant.  An instant in
   the window [base, base + width) owns the bucket [ring.(tick land mask)],
   a circular list of its events reached through the newest one, whose
   [next] is the oldest.  Later instants wait in [overflow], sorted by
   (time, seq).  [seq] grows in scheduling order, so appending to an
   instant's bucket keeps each instant FIFO and the whole queue in
   (time, seq) order.

   Invariant: [base <= clock] and [base <=] every pending time.  A new
   event (time >= clock) therefore never lands before the window.  Only
   firing the least event moves [base]: to that event's instant, which
   the clock then reaches.  A [run ~until] that stops short leaves it
   alone.

   [width] is a power of two, so a mask finds the slot, and the first
   above the delays the protocols schedule: link delays of 1-10 ticks,
   retry deadlines of +60 and backoffs of at most 69.  Under 0.1% of the
   benchmark workloads' events take the overflow path.

   An event is queued exactly when its [next] is not [nil]: a ring event
   links into its bucket, an overflow event points at itself.  A queued
   event sits in the ring when its instant is below [base + width] and in
   the overflow otherwise.  A timer is an event that can be queued again
   after it fired, or moved while queued. *)

let width = 128

let mask = width - 1

type event = {
  mutable time : Vtime.t;
  mutable seq : int;
  action : unit -> unit;
  mutable next : event; (* the next event of its bucket; the tail's is the head *)
}

type t = {
  mutable clock : Vtime.t;
  mutable next_seq : int;
  mutable base : int;
  ring : event array; (* each slot: its bucket's newest event, or [nil] *)
  mutable in_ring : int;
  mutable overflow : event list; (* instants >= base + width *)
  mutable pending : int;
  nil : event; (* the empty-slot sentinel; never queued *)
  rng : Rng.t;
  metrics : Obs.Metrics.t;
  hub : Obs.Hub.t;
  spans : Obs.Trace_ctx.t;
}

let create ~rng () =
  let rec nil = { time = Vtime.zero; seq = -1; action = ignore; next = nil } in
  {
    clock = Vtime.zero;
    next_seq = 0;
    base = 0;
    ring = Array.make width nil;
    in_ring = 0;
    overflow = [];
    pending = 0;
    nil;
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

(* Append [ev] to the bucket of its instant, which must be in the window. *)
let append t ev =
  let i = Vtime.to_int ev.time land mask in
  let tail = t.ring.(i) in
  if tail == t.nil then ev.next <- ev
  else begin
    ev.next <- tail.next;
    tail.next <- ev
  end;
  t.ring.(i) <- ev;
  t.in_ring <- t.in_ring + 1

(* [ev] carries the newest seq, so it goes after every event of its instant. *)
let rec insert ev = function
  | e :: rest when Vtime.( <= ) e.time ev.time -> e :: insert ev rest
  | later -> ev :: later

(* An event not yet queued. *)
let event t action = { time = Vtime.zero; seq = -1; action; next = t.nil }

(* Queue [ev], which is not queued, at [time] (clamped to the clock) with
   the next seq. *)
let enqueue t ev time =
  ev.time <- Vtime.max time t.clock;
  ev.seq <- t.next_seq;
  t.next_seq <- ev.seq + 1;
  t.pending <- t.pending + 1;
  if Vtime.to_int ev.time < t.base + width then append t ev
  else begin
    ev.next <- ev;
    t.overflow <- insert ev t.overflow
  end

let schedule_at t time action = enqueue t (event t action) time

let schedule t ~delay action = schedule_at t (Vtime.add t.clock (max delay 0)) action

(* A top-level scan taking everything it uses as arguments: a local
   closure over [t] would be allocated on every event. *)
let rec first_full t tick =
  if t.ring.(tick land mask) == t.nil then first_full t (tick + 1) else tick

(* The instant of the least pending event.  Requires [t.pending > 0]. *)
let least_tick t =
  if t.in_ring = 0 then
    match t.overflow with e :: _ -> Vtime.to_int e.time | [] -> t.base
  else first_full t t.base

let rec refill t = function
  | e :: rest when Vtime.to_int e.time < t.base + width ->
    append t e;
    refill t rest
  | rest -> t.overflow <- rest

(* Clear a dequeued event's link.  The event may already sit in the
   major heap with its [next] in the remembered set; left pointing at a
   young event, that link would promote the young one at the next minor
   collection, whether or not it was still queued. *)
let forget t ev = ev.next <- t.nil

(* Unlink and return the head of the bucket at [tick], the least pending
   instant.  The window first moves to start at [tick], pulling the
   overflow events it now covers into the ring in (time, seq) order; their
   slots alias the instants before [tick], which are empty. *)
let pop_least t tick =
  if tick <> t.base then begin
    t.base <- tick;
    refill t t.overflow
  end;
  let i = tick land mask in
  let tail = t.ring.(i) in
  let head = tail.next in
  if head == tail then t.ring.(i) <- t.nil else tail.next <- head.next;
  forget t head;
  t.in_ring <- t.in_ring - 1;
  t.pending <- t.pending - 1;
  head

(* The single place an event is consumed: run and step both funnel
   through here, so they cannot disagree on clock handling. *)
let fire_event t ev =
  t.clock <- Vtime.max t.clock ev.time;
  ev.action ()

let step t =
  t.pending > 0
  && begin
    fire_event t (pop_least t (least_tick t));
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
        fire_event t (pop_least t tick)
      end
    end
  done;
  match until with
  | Some u when Vtime.( < ) t.clock u && !fired < max_events -> t.clock <- u
  | _ -> ()

let pending t = t.pending

let quiescent t = t.pending = 0

type timer = { engine : t; ev : event }

let timer t action = { engine = t; ev = event t action }

let due tm = tm.ev.time

let rec prev_in_bucket ev prev =
  if prev.next == ev then prev else prev_in_bucket ev prev.next

(* Unlink a queued [ev] from wherever it sits. *)
let unlink t ev =
  if Vtime.to_int ev.time < t.base + width then begin
    let i = Vtime.to_int ev.time land mask in
    let tail = t.ring.(i) in
    if ev.next == ev then t.ring.(i) <- t.nil
    else begin
      let prev = prev_in_bucket ev tail in
      prev.next <- ev.next;
      if ev == tail then t.ring.(i) <- prev
    end;
    t.in_ring <- t.in_ring - 1
  end
  else t.overflow <- List.filter (fun e -> e != ev) t.overflow;
  forget t ev;
  t.pending <- t.pending - 1

let cancel { engine = t; ev } = if ev.next != t.nil then unlink t ev

let arm tm time =
  cancel tm;
  enqueue tm.engine tm.ev time
