type 'm entry = { id : int; mutable payload : 'm option; arrival : Vtime.t }

type 'm t = {
  engine : Engine.t;
  delay : unit -> Vtime.span;
  label : string; (* engine event label, ["link:" ^ name] *)
  msgs : int ref; (* the engine's ["net.msgs"] counter *)
  deliver : 'm -> unit;
  mutable last_arrival : Vtime.t;
  mutable next_id : int;
  mutable flight : 'm entry list; (* newest first *)
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

let create ~engine ~delay ~name ~deliver =
  {
    engine;
    delay;
    label = "link:" ^ name;
    msgs = Obs.Metrics.counter_ref (Engine.metrics engine) "net.msgs";
    deliver;
    last_arrival = Vtime.zero;
    next_id = 0;
    flight = [];
  }

let transmit_timed ?on_delivered t payload =
  let proposed = Vtime.add (Engine.now t.engine) (t.delay ()) in
  (* FIFO: never overtake a message already in flight. *)
  let arrival = Vtime.max proposed t.last_arrival in
  t.last_arrival <- arrival;
  let entry = { id = t.next_id; payload = Some payload; arrival } in
  t.next_id <- entry.id + 1;
  t.flight <- entry :: t.flight;
  (* Label the event with the link name so an external scheduling policy
     (the model checker) can tell which channel each pending delivery
     belongs to and preserve per-link FIFO while reordering across links. *)
  Engine.schedule_at ~label:t.label t.engine arrival (fun () ->
      t.flight <- List.filter (fun e -> e.id <> entry.id) t.flight;
      (* Read the payload at fire time: a transient fault may have rewritten
         or dropped it while in transit. *)
      (match entry.payload with
      | None -> ()
      | Some m ->
        incr t.msgs;
        t.deliver m);
      (* Notify after the receiver processed the message, even if a
         transient fault dropped the payload: the delivery *slot* happened,
         which is what synchronized-broadcast waiters count. *)
      match on_delivered with None -> () | Some f -> f ());
  arrival

let send t m = ignore (transmit_timed t m)

let send_timed ?on_delivered t m = transmit_timed ?on_delivered t m

let in_flight t =
  List.rev t.flight
  |> List.filter_map (fun e -> e.payload)

let corrupt_in_flight t f =
  List.iter
    (fun e ->
      match e.payload with None -> () | Some m -> e.payload <- f m)
    t.flight

let inject t m = ignore (transmit_timed t m)
