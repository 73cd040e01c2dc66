(* A packet in flight; its delivery removes it by physical identity. *)
type 'm entry = { mutable payload : 'm option }

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
  mutable flight : 'm entry list;
}

let create ~engine ~rng ~delay ?(loss = 0.0) ?(dup = 0.0) ?classify ~name
    ~deliver () =
  if loss < 0.0 || loss >= 1.0 then
    invalid_arg "Lossy_link.create: loss must be in [0,1)";
  if dup < 0.0 || dup >= 1.0 then
    invalid_arg "Lossy_link.create: dup must be in [0,1)";
  let dropped = Obs.Metrics.counter_ref (Engine.metrics engine) "net.dropped" in
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

let rec transmit ~copy t payload =
  incr (pkts t);
  if (not copy) && Rng.float t.rng 1.0 < t.loss then record_drop t payload
  else begin
    let entry = { payload = Some payload } in
    t.flight <- entry :: t.flight;
    Engine.schedule t.engine ~delay:(t.delay ()) (fun () ->
        t.flight <- List.filter (fun e -> e != entry) t.flight;
        match entry.payload with
        | None -> ()
        | Some m ->
          incr (msgs t);
          (* Duplication: the packet is delivered once more after another
             (lossless) transit.  A copy never re-duplicates: the medium
             has bounded capacity, so duplicate chains are bounded. *)
          if (not copy) && Rng.float t.rng 1.0 < t.dup then
            transmit ~copy:true t m;
          t.deliver m)
  end

let send t m = transmit ~copy:false t m

let corrupt_in_flight t f =
  List.iter
    (fun e -> match e.payload with None -> () | Some m -> e.payload <- f m)
    t.flight
