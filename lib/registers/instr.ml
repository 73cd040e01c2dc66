type probe = {
  engine : Sim.Engine.t;
  proc : string;
  reg : string;
  op : Obs.Event.op_kind;
  hist : Obs.Metrics.histogram;
  mutable ops : int ref option;
}

type span = { id : int; t0 : Sim.Vtime.t; ctx : Obs.Trace_ctx.span }

let probe ~engine ~client ~reg op =
  {
    engine;
    proc = "c" ^ string_of_int client;
    reg;
    op;
    hist =
      Obs.Metrics.histogram
        (Sim.Engine.metrics engine)
        ("op." ^ reg ^ "." ^ Obs.Event.op_name op);
    ops = None;
  }

let start ?parent p =
  let hub = Sim.Engine.hub p.engine in
  let id = Obs.Hub.next_op_id hub in
  let t0 = Sim.Engine.now p.engine in
  let spans = Sim.Engine.spans p.engine in
  let ctx =
    match parent with
    | None -> Obs.Trace_ctx.root spans
    | Some parent -> Obs.Trace_ctx.child spans parent
  in
  if Obs.Hub.active hub then
    Obs.Hub.emit hub
      (Obs.Event.Op_invoke
         {
           time = Sim.Vtime.to_int t0;
           id;
           proc = p.proc;
           reg = p.reg;
           op = p.op;
           span = ctx;
         });
  { id; t0; ctx }

let context s = s.ctx

let finish ~ok p span =
  let now = Sim.Engine.now p.engine in
  Obs.Metrics.observe p.hist (float_of_int (Sim.Vtime.diff now span.t0));
  let hub = Sim.Engine.hub p.engine in
  if Obs.Hub.active hub then
    Obs.Hub.emit hub
      (Obs.Event.Op_return
         {
           time = Sim.Vtime.to_int now;
           id = span.id;
           proc = p.proc;
           reg = p.reg;
           op = p.op;
           ok;
           span = span.ctx;
         })

(* Resolved at the first count, so a probe that never counts leaves no
   counter behind in reports. *)
let count_op p =
  match p.ops with
  | Some r -> incr r
  | None ->
    let r =
      Obs.Metrics.counter_ref
        (Sim.Engine.metrics p.engine)
        (Obs.Event.op_name p.op ^ ".ops")
    in
    incr r;
    p.ops <- Some r
