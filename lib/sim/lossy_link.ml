type 'm entry = { id : int; mutable payload : 'm option }

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
  pkts : int ref Lazy.t; (* ["net.pkts"] *)
  msgs : int ref Lazy.t; (* ["net.msgs"] *)
  mutable next_id : int;
  mutable flight : 'm entry list;
}

let create ~engine ~rng ~delay ?(loss = 0.0) ?(dup = 0.0) ?classify ~name
    ~deliver () =
  if loss < 0.0 || loss >= 1.0 then
    invalid_arg "Lossy_link.create: loss must be in [0,1)";
  if dup < 0.0 || dup >= 1.0 then
    invalid_arg "Lossy_link.create: dup must be in [0,1)";
  {
    engine;
    rng;
    delay;
    loss;
    dup;
    name;
    classify;
    deliver;
    dropped = Obs.Metrics.counter_ref (Engine.metrics engine) "net.dropped";
    (* Resolved at first use: a link that never carries a packet adds no
       zero counter to the report. *)
    pkts = lazy (Obs.Metrics.counter_ref (Engine.metrics engine) "net.pkts");
    msgs = lazy (Obs.Metrics.counter_ref (Engine.metrics engine) "net.msgs");
    next_id = 0;
    flight = [];
  }

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

let rec transmit ?(lossless = false) ?(can_dup = true) t payload =
  incr (Lazy.force t.pkts);
  if (not lossless) && Rng.float t.rng 1.0 < t.loss then record_drop t payload
  else begin
    let entry = { id = t.next_id; payload = Some payload } in
    t.next_id <- entry.id + 1;
    t.flight <- entry :: t.flight;
    Engine.schedule t.engine ~delay:(t.delay ()) (fun () ->
        t.flight <- List.filter (fun e -> e.id <> entry.id) t.flight;
        match entry.payload with
        | None -> ()
        | Some m ->
          incr (Lazy.force t.msgs);
          (* Duplication: the packet is delivered once more after another
             (lossless) transit.  A copy never re-duplicates: the medium
             has bounded capacity, so duplicate chains are bounded. *)
          if can_dup && Rng.float t.rng 1.0 < t.dup then
            transmit ~lossless:true ~can_dup:false t m;
          t.deliver m)
  end

let send t m = transmit t m

let inject t m = transmit ~lossless:true t m

let corrupt_in_flight t f =
  List.iter
    (fun e -> match e.payload with None -> () | Some m -> e.payload <- f m)
    t.flight

let in_flight t = List.filter_map (fun e -> e.payload) t.flight
