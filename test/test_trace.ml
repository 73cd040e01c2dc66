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
    (Obs.Metrics.counters m = [ ("x", 2); ("y", 5) ])

(* Hot paths (Net's per-class traffic counters, Link's "net.msgs") hold
   refs resolved once with [counter_ref]; the registry reads through
   them. *)
let test_cached_refs () =
  let m = Obs.Metrics.create () in
  let r = Obs.Metrics.counter_ref m "hot" in
  incr r;
  incr r;
  check_int "the cached ref feeds the registry" 2
    (Obs.Metrics.counter m "hot");
  Obs.Metrics.incr m "hot";
  check_int "and counts the registry's bumps" 3 !r;
  check_true "same ref on a second lookup"
    (r == Obs.Metrics.counter_ref m "hot")

let tests =
  [
    case "counters" test_counters;
    case "cached refs feed the registry" test_cached_refs;
  ]
