open Util

let test_counters () =
  let tr = Sim.Trace.create () in
  check_int "fresh counter" 0 (Sim.Trace.counter tr "x");
  Sim.Trace.incr tr "x";
  Sim.Trace.incr tr "x";
  Sim.Trace.add tr "y" 5;
  check_int "x" 2 (Sim.Trace.counter tr "x");
  check_int "y" 5 (Sim.Trace.counter tr "y");
  check_true "sorted listing"
    (Sim.Trace.counters tr = [ ("x", 2); ("y", 5) ]);
  Sim.Trace.reset_counters tr;
  check_int "reset" 0 (Sim.Trace.counter tr "x")

(* Hot paths (Net's per-class traffic counters, Link's "net.msgs") hold
   refs resolved once with [counter_ref]; a reset must zero them in
   place, not strand them outside the registry. *)
let test_reset_keeps_cached_refs () =
  let tr = Sim.Trace.create () in
  let r = Obs.Metrics.counter_ref (Sim.Trace.metrics tr) "hot" in
  incr r;
  Sim.Trace.reset_counters tr;
  check_int "zeroed" 0 !r;
  incr r;
  incr r;
  check_int "the cached ref still feeds the registry" 2
    (Sim.Trace.counter tr "hot");
  check_true "same ref after reset"
    (r == Obs.Metrics.counter_ref (Sim.Trace.metrics tr) "hot")

let tests =
  [
    case "counters" test_counters;
    case "reset keeps cached refs" test_reset_keeps_cached_refs;
  ]
