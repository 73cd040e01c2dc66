(* E4 — Tightness of the synchronous resilience requirement (Theorem 2).

   The scripted schedule of Harness.Starvation, in the synchronous model:
   below n = 3t+1 the reader burns extra rounds whenever a write's
   propagation window splits the correct servers; at the bound, every
   round succeeds — t < n/3 is empirically tight against this adversary. *)

let run ~seed:_ =
  Harness.Report.section "E4: synchronous liveness vs n (Thm 2, t < n/3)";
  let rows =
    List.map
      (fun (n, f) ->
        let o =
          Harness.Starvation.run ~n ~f ~sync:true ~budget:10
            ~instrument:(fun e -> Common.attach_trace_sink (Sim.Engine.hub e))
            ()
        in
        Common.observe_metrics ~params:o.Harness.Starvation.params
          o.Harness.Starvation.metrics;
        [
          string_of_int n;
          string_of_int f;
          (if n >= (3 * f) + 1 then "yes" else "no");
          Common.bool_str
            (Harness.Starvation.predicted_starvation ~n ~f ~sync:true);
          string_of_int o.Harness.Starvation.rounds_used;
          Common.value_str o.Harness.Starvation.returned;
        ])
      [ (3, 1); (4, 1); (5, 1); (6, 2); (7, 2); (8, 2); (9, 3); (10, 3) ]
  in
  Harness.Report.table ~title:"scripted splitter, synchronous thresholds"
    ~header:
      [ "n"; "t"; "n>=3t+1"; "split predicted"; "rounds used"; "returned" ]
    rows;
  print_endline
    "  Shape: one round suffices exactly from n = 3t+1 upward; below it the\n\
    \  reader retries through split rounds (and can starve under a\n\
    \  permanently active writer)."
