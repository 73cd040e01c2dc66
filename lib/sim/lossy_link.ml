(* The packets in flight sit in a ring of three parallel arrays, in the
   order their delivery events fire: by arrival instant, then by send
   order.  [count] slots from [head], wrapping at the capacity, a power
   of two that doubles when the ring is full (the arrays start empty, so
   a link that never carries a packet holds none).  A slot keeps the
   packet's arrival, its stamp (its send number, shifted left once, with
   the low bit set for a duplicate copy) and its payload, which is
   [None] once a transient fault dropped it.  Delivery clears the
   payload, so the link keeps nothing of a packet that has arrived.

   Every delivery event runs the same action, [arrive], registered once
   with the engine as a recurring action: sending a packet stores its
   payload and two ints, and allocates nothing but the payload's [Some].
   The engine fires the events of an instant in scheduling order, and a
   packet's event is scheduled when it is sent, so the event firing now
   is always the head slot's. *)

type 'm t = {
  engine : Engine.t;
  rng : Rng.t;
  delay : Link.sampler;
  mutable loss : float;
  mutable dup : float;
  name : string;
  classify : ('m -> Obs.Event.msg_class) option;
  deliver : 'm -> unit;
  dropped : int ref;
  mutable pkts : int ref; (* ["net.pkts"]; [dropped] until resolved *)
  mutable msgs : int ref; (* ["net.msgs"]; [dropped] until resolved *)
  mutable arrival : Vtime.t array;
  mutable stamp : int array;
  mutable payload : 'm option array;
  mutable head : int; (* the slot of the packet that arrives next *)
  mutable count : int; (* packets in flight *)
  mutable sent : int; (* packets queued so far: the next send number *)
  arrive : Engine.recurring; (* the delivery action of every event *)
}

let initial_ring = 8

(* The counters, resolved at first use.  Not [Lazy], whose every force
   is a C call, and not an option, whose [Some] each link would keep:
   until resolved a counter field holds the link's own [dropped], which
   is never its packet or message counter. *)
let pkts t =
  if t.pkts == t.dropped then
    t.pkts <- Obs.Metrics.counter_ref (Engine.metrics t.engine) "net.pkts";
  t.pkts

let msgs t =
  if t.msgs == t.dropped then
    t.msgs <- Obs.Metrics.counter_ref (Engine.metrics t.engine) "net.msgs";
  t.msgs

(* Double the ring, unrolled so that the head is at slot 0. *)
let grow t =
  let cap = Array.length t.payload in
  let unroll a fill =
    let b = Array.make (Int.max initial_ring (2 * cap)) fill in
    Array.blit a t.head b 0 (cap - t.head);
    Array.blit a 0 b (cap - t.head) t.head;
    b
  in
  t.arrival <- unroll t.arrival Vtime.zero;
  t.stamp <- unroll t.stamp 0;
  t.payload <- unroll t.payload None;
  t.head <- 0

(* Queue [packet] behind every packet in flight that arrives no later:
   the packets arriving later shift one slot towards the tail. *)
let enqueue t packet ~copy =
  let arrival = Vtime.add (Engine.now t.engine) (Int.max (t.delay ()) 0) in
  if t.count = Array.length t.payload then grow t;
  let mask = Array.length t.payload - 1 in
  let k = ref ((t.head + t.count) land mask) in
  let left = ref t.count in
  while !left > 0 && Vtime.( < ) arrival t.arrival.((!k - 1) land mask) do
    let src = (!k - 1) land mask in
    t.arrival.(!k) <- t.arrival.(src);
    t.stamp.(!k) <- t.stamp.(src);
    t.payload.(!k) <- t.payload.(src);
    k := src;
    decr left
  done;
  t.arrival.(!k) <- arrival;
  t.stamp.(!k) <- (t.sent lsl 1) lor Bool.to_int copy;
  t.payload.(!k) <- packet;
  t.sent <- t.sent + 1;
  t.count <- t.count + 1;
  Engine.schedule_recurring_at t.engine arrival t.arrive

(* A packet's delivery: the head slot is cleared and the ring advanced
   before the receiver runs, which may send on this link again.
   Duplication: the packet is queued once more after another (lossless)
   transit, before the receiver sees it.  A copy never re-duplicates:
   the medium has bounded capacity, so duplicate chains are bounded. *)
let arrive t =
  let i = t.head in
  (* Read the payload at fire time: a transient fault may have rewritten
     or dropped it while in transit. *)
  let packet = t.payload.(i) in
  let copy = t.stamp.(i) land 1 = 1 in
  t.payload.(i) <- None;
  t.head <- (i + 1) land (Array.length t.payload - 1);
  t.count <- t.count - 1;
  match packet with
  | None -> ()
  | Some m ->
    incr (msgs t);
    if (not copy) && Rng.float t.rng 1.0 < t.dup then begin
      incr (pkts t);
      enqueue t packet ~copy:true
    end;
    t.deliver m

let create ~engine ~rng ~delay ?(loss = 0.0) ?(dup = 0.0) ?classify ~name
    ~deliver () =
  if loss < 0.0 || loss >= 1.0 then
    invalid_arg "Lossy_link.create: loss must be in [0,1)";
  if dup < 0.0 || dup >= 1.0 then
    invalid_arg "Lossy_link.create: dup must be in [0,1)";
  let dropped = Obs.Metrics.counter_ref (Engine.metrics engine) "net.dropped" in
  (* The delivery action reaches the link, which holds its handle,
     through [self], assigned once the link exists. *)
  let self = ref None in
  let t =
    {
      engine;
      rng;
      delay;
      loss;
      dup;
      name;
      classify;
      deliver;
      dropped;
      (* Resolved at first use: a link that never carries a packet adds no
         zero counter to the report. *)
      pkts = dropped;
      msgs = dropped;
      arrival = [||];
      stamp = [||];
      payload = [||];
      head = 0;
      count = 0;
      sent = 0;
      arrive =
        Engine.recurring engine (fun () ->
            match !self with Some t -> arrive t | None -> ());
    }
  in
  self := Some t;
  t

let loss t = t.loss

let dup t = t.dup

(* Chaos windows retune a live link; the mark makes the window visible in
   event traces next to the drops it causes. *)
let mark_change t ~knob ~from ~to_ =
  let hub = Engine.hub t.engine in
  if Obs.Hub.active hub then
    Obs.Hub.emit hub
      (Obs.Event.Mark
         {
           time = Vtime.to_int (Engine.now t.engine);
           label = Printf.sprintf "link.%s.%s:%g->%g" t.name knob from to_;
         })

let set_loss t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Lossy_link.set_loss: loss must be in [0,1]";
  if p <> t.loss then begin
    mark_change t ~knob:"loss" ~from:t.loss ~to_:p;
    t.loss <- p
  end

let set_dup t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Lossy_link.set_dup: dup must be in [0,1]";
  if p <> t.dup then begin
    mark_change t ~knob:"dup" ~from:t.dup ~to_:p;
    t.dup <- p
  end

let record_drop t payload =
  incr t.dropped;
  let hub = Engine.hub t.engine in
  if Obs.Hub.active hub then
    Obs.Hub.emit hub
      (Obs.Event.Drop
         {
           time = Vtime.to_int (Engine.now t.engine);
           link = t.name;
           cls = (match t.classify with Some f -> Some (f payload) | None -> None);
         })

let send t m =
  incr (pkts t);
  if Rng.float t.rng 1.0 < t.loss then record_drop t m
  else enqueue t (Some m) ~copy:false

(* Newest first, by send number: the order the rewrites draw from a
   fault's generator.  The rewrite must not send on this link. *)
let corrupt_in_flight t rewrite =
  let mask = Array.length t.payload - 1 in
  let slots = Array.init t.count (fun k -> (t.head + k) land mask) in
  Array.sort (fun i j -> Int.compare t.stamp.(j) t.stamp.(i)) slots;
  Array.iter
    (fun i ->
      match t.payload.(i) with Some m -> t.payload.(i) <- rewrite m | None -> ())
    slots
