type t = { metrics : Obs.Metrics.t; hub : Obs.Hub.t; spans : Obs.Trace_ctx.t }

let create ?metrics ?hub () =
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let hub = match hub with Some h -> h | None -> Obs.Hub.create () in
  { metrics; hub; spans = Obs.Trace_ctx.create () }

let metrics t = t.metrics

let hub t = t.hub

let spans t = t.spans

let add t name n = Obs.Metrics.add t.metrics name n

let incr t name = Obs.Metrics.incr t.metrics name

let counter t name = Obs.Metrics.counter t.metrics name

let counters t = Obs.Metrics.counters t.metrics

let reset_counters t = Obs.Metrics.reset_counters t.metrics
