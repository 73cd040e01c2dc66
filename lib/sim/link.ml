type 'm entry = {
  mutable payload : 'm;
  mutable live : bool; (* false once a transient fault dropped the payload *)
  on_delivered : (unit -> unit) option;
}

type 'm t = {
  engine : Engine.t;
  delay : unit -> Vtime.span;
  msgs : int ref; (* the engine's ["net.msgs"] counter *)
  deliver : 'm -> unit;
  mutable last_arrival : Vtime.t;
  flight : 'm entry Queue.t; (* oldest first: the head arrives next *)
  mutable arrive : unit -> unit; (* the delivery action of every event *)
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
   event firing now is always the head entry's. *)
let arrive t () =
  let e = Queue.pop t.flight in
  (* Read the payload at fire time: a transient fault may have rewritten
     or dropped it while in transit. *)
  if e.live then begin
    incr t.msgs;
    t.deliver e.payload
  end;
  (* Notify after the receiver processed the message, even if a
     transient fault dropped the payload: the delivery *slot* happened,
     which is what synchronized-broadcast waiters count. *)
  match e.on_delivered with None -> () | Some f -> f ()

let create ~engine ~delay ~deliver =
  let t =
    {
      engine;
      delay;
      msgs = Obs.Metrics.counter_ref (Engine.metrics engine) "net.msgs";
      deliver;
      last_arrival = Vtime.zero;
      flight = Queue.create ();
      arrive = ignore;
    }
  in
  t.arrive <- arrive t;
  t

let transmit_timed ?on_delivered t payload =
  let proposed = Vtime.add (Engine.now t.engine) (t.delay ()) in
  (* FIFO: never overtake a message already in flight. *)
  let arrival = Vtime.max proposed t.last_arrival in
  t.last_arrival <- arrival;
  Queue.push { payload; live = true; on_delivered } t.flight;
  Engine.schedule_at t.engine arrival t.arrive;
  arrival

let send t m = ignore (transmit_timed t m)

let send_timed ?on_delivered t m = transmit_timed ?on_delivered t m

(* Newest first: the order the rewrites draw from a fault's generator. *)
let corrupt_in_flight t f =
  List.iter
    (fun e ->
      if e.live then
        match f e.payload with
        | None -> e.live <- false
        | Some m -> e.payload <- m)
    (Queue.fold (fun acc e -> e :: acc) [] t.flight)

let inject t m = ignore (transmit_timed t m)
