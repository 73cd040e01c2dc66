(* E1 — Figure 1: the new/old inversion of the regular register, and its
   elimination by the practically atomic register, on the deterministic
   schedule of Harness.Fig1. *)

let run ~seed:_ =
  Harness.Report.section "E1: Figure 1 — new/old inversion (regular vs atomic)";
  let row kind label =
    let o =
      Harness.Fig1.run
        ~instrument:(fun e -> Common.attach_trace_sink (Sim.Engine.hub e))
        kind
    in
    Common.observe_metrics
      ~params:
        (Registers.Params.create_exn ~n:9 ~f:1 ~mode:Registers.Params.Async ())
      o.Harness.Fig1.metrics;
    [
      label;
      Common.value_str o.Harness.Fig1.read1;
      Common.value_str o.Harness.Fig1.read2;
      Common.bool_str o.Harness.Fig1.write1_pending_during_reads;
      Common.bool_str o.Harness.Fig1.inversion;
    ]
  in
  Harness.Report.table ~title:"write(0) complete; write(1) pending across both reads"
    ~header:[ "register"; "read1"; "read2"; "write(1) concurrent"; "inversion" ]
    [ row `Regular "regular (Fig 2)"; row `Atomic "atomic (Fig 3)" ];
  print_endline
    "  Paper claim: the regular register admits the read1=1, read2=0\n\
    \  inversion; the Fig. 3 sequence numbers eliminate it (line 13M3)."
