open Util

let test_counters () =
  let m = Obs.Metrics.create () in
  check_int "fresh counter" 0 (Obs.Metrics.counter m "x");
  Obs.Metrics.incr m "x";
  Obs.Metrics.incr m "x";
  Obs.Metrics.add m "y" 5;
  check_int "x" 2 (Obs.Metrics.counter m "x");
  check_int "y" 5 (Obs.Metrics.counter m "y");
  check_true "sorted listing"
    (Obs.Metrics.counters m = [ ("x", 2); ("y", 5) ]);
  Obs.Metrics.reset_counters m;
  check_int "reset" 0 (Obs.Metrics.counter m "x")

(* Hot paths (Net's per-class traffic counters, Link's "net.msgs") hold
   refs resolved once with [counter_ref]; a reset must zero them in
   place, not strand them outside the registry. *)
let test_reset_keeps_cached_refs () =
  let m = Obs.Metrics.create () in
  let r = Obs.Metrics.counter_ref m "hot" in
  incr r;
  Obs.Metrics.reset_counters m;
  check_int "zeroed" 0 !r;
  incr r;
  incr r;
  check_int "the cached ref still feeds the registry" 2
    (Obs.Metrics.counter m "hot");
  check_true "same ref after reset"
    (r == Obs.Metrics.counter_ref m "hot")

let tests =
  [
    case "counters" test_counters;
    case "reset keeps cached refs" test_reset_keeps_cached_refs;
  ]
