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
   the clock then reaches.  Out-of-order firing ([fire], [fire_labeled])
   and a [run ~until] that stops short leave it alone.

   [width] is a power of two, so a mask finds the slot, and the first
   above the delays the protocols schedule: link delays of 1-10 ticks,
   retry deadlines of +60 and backoffs of at most 69.  Under 0.1% of the
   benchmark workloads' events take the overflow path. *)

let width = 128

let mask = width - 1

type event = {
  time : Vtime.t;
  seq : int;
  label : string;
  action : unit -> unit;
  mutable next : event; (* the next event of its bucket; the tail's is the head *)
}

type ready_event = { r_time : Vtime.t; r_seq : int; r_label : string }

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
  trace : Trace.t;
}

let create ?trace ~rng () =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  let rec nil =
    { time = Vtime.zero; seq = -1; label = ""; action = ignore; next = nil }
  in
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
    trace;
  }

let now t = t.clock

let rng t = t.rng

let trace t = t.trace

let metrics t = Trace.metrics t.trace

let hub t = Trace.hub t.trace

let spans t = Trace.spans t.trace

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

let schedule_at ?(label = "") t time action =
  let time = Vtime.max time t.clock in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.pending <- t.pending + 1;
  let ev = { time; seq; label; action; next = t.nil } in
  if Vtime.to_int time < t.base + width then append t ev
  else t.overflow <- insert ev t.overflow

let schedule ?label t ~delay action =
  schedule_at ?label t (Vtime.add t.clock (max delay 0)) action

(* The scans are top-level functions taking everything they use as
   arguments: local closures over [t], [f] or [pred] would be allocated on
   every event, or on every move of the model checker. *)
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

(* The single place an event is consumed: run, step and fire all funnel
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

(* [f] on [ev] and the rest of its bucket up to [tail]; [n] plus the
   number of events visited. *)
let rec iter_bucket f tail ev n =
  f ev;
  if ev == tail then n + 1 else iter_bucket f tail ev.next (n + 1)

let rec iter_ring t f tick left =
  if left > 0 then begin
    let tail = t.ring.(tick land mask) in
    if tail == t.nil then iter_ring t f (tick + 1) left
    else iter_ring t f (tick + 1) (left - iter_bucket f tail tail.next 0)
  end

(* In (time, seq) order: the ring from [base], each bucket head to tail,
   then the overflow. *)
let ready t =
  let acc = ref [] in
  let add ev = acc := { r_time = ev.time; r_seq = ev.seq; r_label = ev.label } :: !acc in
  iter_ring t add t.base t.in_ring;
  List.iter add t.overflow;
  List.rev !acc

(* [prev] is the event before the one examined: the tail, for the head. *)
let rec take_in_bucket t pred tick tail prev left =
  let ev = prev.next in
  if pred ev then begin
    let i = tick land mask in
    if ev == prev then t.ring.(i) <- t.nil
    else begin
      prev.next <- ev.next;
      if ev == tail then t.ring.(i) <- prev
    end;
    forget t ev;
    t.in_ring <- t.in_ring - 1;
    t.pending <- t.pending - 1;
    ev
  end
  else if ev == tail then take_in_ring t pred (tick + 1) (left - 1)
  else take_in_bucket t pred tick tail ev (left - 1)

and take_in_ring t pred tick left =
  if left = 0 then take_in_overflow t pred [] t.overflow
  else
    let tail = t.ring.(tick land mask) in
    if tail == t.nil then take_in_ring t pred (tick + 1) left
    else take_in_bucket t pred tick tail tail left

and take_in_overflow t pred seen = function
  | [] -> t.nil
  | ev :: rest ->
    if pred ev then begin
      t.overflow <- List.rev_append seen rest;
      t.pending <- t.pending - 1;
      ev
    end
    else take_in_overflow t pred (ev :: seen) rest

(* Unlink and return the first event in (time, seq) order satisfying
   [pred], or [t.nil] when none does.  [base] does not move: the events
   left behind may be earlier than the one taken. *)
let take t pred = take_in_ring t pred t.base t.in_ring

let fire t ~seq =
  let ev = take t (fun ev -> ev.seq = seq) in
  ev != t.nil
  && begin
    fire_event t ev;
    true
  end

let advance_to t time = if Vtime.( < ) t.clock time then t.clock <- time

let fire_labeled t ~label ~not_before =
  let ev = take t (fun ev -> String.equal ev.label label) in
  ev != t.nil
  && begin
    advance_to t not_before;
    fire_event t ev;
    true
  end

let pending t = t.pending

let quiescent t = t.pending = 0
