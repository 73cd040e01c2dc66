(* The messages in flight sit in a ring of two parallel arrays, oldest
   first from [head]: [count] slots, wrapping at the capacity, a power of
   two that starts at 8 and doubles when the ring is full.  A slot's
   payload is [None] once a transient fault dropped it; its callback is
   [None] when the sender gave none.  Delivery clears both, so the link
   keeps nothing of a message that has arrived (a stale payload would
   only be promoted, and scanned, with the ring).

   Every delivery event runs the same action, [arrive] on the ring,
   registered once with the engine as a recurring action: queueing a
   message stores its payload, and its callback if it has one, and no
   other pointer.  The action captures the ring, not the link, which
   holds its handle. *)

let initial_ring = 8

type 'm flight = {
  msgs : int ref; (* the engine's ["net.msgs"] counter *)
  deliver : 'm -> unit;
  mutable payload : 'm option array;
  mutable notify : (unit -> unit) option array;
  mutable head : int; (* the slot of the oldest message: it arrives next *)
  mutable count : int; (* messages in flight *)
}

type 'm t = {
  engine : Engine.t;
  delay : unit -> Vtime.span;
  mutable last_arrival : Vtime.t;
  flight : 'm flight;
  arrive : Engine.recurring; (* the delivery action of every event *)
}

type sampler = unit -> Vtime.span

let uniform rng ~lo ~hi =
  if lo < 0 || hi < lo then invalid_arg "Link.uniform: bad delay range";
  fun () -> Rng.int_in rng lo hi

let fixed d =
  if d < 0 then invalid_arg "Link.fixed: negative delay";
  fun () -> d

let bimodal rng ~fast:(flo, fhi) ~slow:(slo, shi) ~slow_probability =
  if flo < 0 || fhi < flo || slo < 0 || shi < slo then
    invalid_arg "Link.bimodal: bad delay ranges";
  if slow_probability < 0.0 || slow_probability > 1.0 then
    invalid_arg "Link.bimodal: bad probability";
  fun () ->
    if Rng.float rng 1.0 < slow_probability then Rng.int_in rng slo shi
    else Rng.int_in rng flo fhi

(* A link's deliveries fire in the order they were sent: arrivals are
   monotone per link and the engine fires in (time, seq) order.  So the
   event firing now is always the head slot's.  The slot is cleared and
   the ring advanced before the receiver runs, which may send on this
   link again. *)
let arrive f =
  let i = f.head in
  (* Read the payload at fire time: a transient fault may have rewritten
     or dropped it while in transit. *)
  let payload = f.payload.(i) and notify = f.notify.(i) in
  f.payload.(i) <- None;
  (match notify with Some _ -> f.notify.(i) <- None | None -> ());
  f.head <- (i + 1) land (Array.length f.payload - 1);
  f.count <- f.count - 1;
  (match payload with
   | Some m ->
     incr f.msgs;
     f.deliver m
   | None -> ());
  (* Notify after the receiver processed the message, even if a
     transient fault dropped the payload: the delivery *slot* happened,
     which is what synchronized-broadcast waiters count. *)
  match notify with None -> () | Some callback -> callback ()

let create ~engine ~delay ~deliver =
  let flight =
    {
      msgs = Obs.Metrics.counter_ref (Engine.metrics engine) "net.msgs";
      deliver;
      payload = Array.make initial_ring None;
      notify = Array.make initial_ring None;
      head = 0;
      count = 0;
    }
  in
  {
    engine;
    delay;
    last_arrival = Vtime.zero;
    flight;
    arrive = Engine.recurring engine (fun () -> arrive flight);
  }

(* Double the ring, unrolled so that the oldest message is at slot 0. *)
let grow f =
  let cap = Array.length f.payload in
  let unroll a =
    let b = Array.make (2 * cap) None in
    Array.blit a f.head b 0 (cap - f.head);
    Array.blit a 0 b (cap - f.head) f.head;
    b
  in
  f.payload <- unroll f.payload;
  f.notify <- unroll f.notify;
  f.head <- 0

let send ?on_delivered t payload =
  let proposed = Vtime.add (Engine.now t.engine) (t.delay ()) in
  (* FIFO: never overtake a message already in flight. *)
  let arrival = Vtime.max proposed t.last_arrival in
  t.last_arrival <- arrival;
  let f = t.flight in
  if f.count = Array.length f.payload then grow f;
  let i = (f.head + f.count) land (Array.length f.payload - 1) in
  f.payload.(i) <- Some payload;
  (match on_delivered with Some _ -> f.notify.(i) <- on_delivered | None -> ());
  f.count <- f.count + 1;
  Engine.schedule_recurring_at t.engine arrival t.arrive

(* Newest first: the order the rewrites draw from a fault's generator. *)
let corrupt_in_flight t rewrite =
  let f = t.flight in
  let mask = Array.length f.payload - 1 in
  for k = f.count - 1 downto 0 do
    let i = (f.head + k) land mask in
    match f.payload.(i) with Some m -> f.payload.(i) <- rewrite m | None -> ()
  done
