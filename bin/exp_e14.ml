(* E14 — Scalability: operation latency and message cost as n grows with
   t = (n-1)/8 (the maximum the asynchronous bound admits).  Not a claim
   of the paper, but the curve a deployer asks for first: both costs are
   linear in n, and latency is delay-bound (two round trips per atomic
   write+read pair) rather than n-bound. *)

open Registers

let measure ~seed ~n =
  let f = (n - 1) / 8 in
  let params = Common.async_params ~n ~f in
  let scn = Common.scenario ~seed ~params () in
  (* a maximal adversary: f garbage servers *)
  for s = 0 to f - 1 do
    Byzantine.Adversary.compromise scn.Harness.Scenario.adversary s
      Byzantine.Behavior.garbage
  done;
  let w, r = Common.atomic_pair scn in
  let ops = 20 in
  Common.run_jobs scn
    [
      ( "wr",
        fun () ->
          for i = 1 to ops do
            ignore
              (Harness.Scenario.record scn ~proc:"writer"
                 ~kind:Oracles.History.Write (fun () ->
                   ignore (Swsr_atomic.write w (Value.int i));
                   Some (Value.int i)));
            ignore
              (Harness.Scenario.record scn ~proc:"reader"
                 ~kind:Oracles.History.Read (fun () ->
                     Outcome.to_option (Swsr_atomic.read r)))
          done );
    ];
  Common.observe_scn scn;
  let rd =
    Obs.Metrics.summary
      (Harness.Metrics.latencies ~kind:Oracles.History.Read
         scn.Harness.Scenario.history)
  in
  let wr =
    Obs.Metrics.summary
      (Harness.Metrics.latencies ~kind:Oracles.History.Write
         scn.Harness.Scenario.history)
  in
  ( f,
    wr.Obs.Metrics.mean,
    rd.Obs.Metrics.mean,
    float_of_int (Harness.Scenario.messages_sent scn) /. float_of_int (2 * ops)
  )

let run ~seed =
  Harness.Report.section "E14: scalability with n (t = (n-1)/8, f garbage servers)";
  let rows =
    List.map
      (fun n ->
        let f, wr, rd, msgs = measure ~seed ~n in
        [
          string_of_int n;
          string_of_int f;
          Harness.Report.f1 wr;
          Harness.Report.f1 rd;
          Harness.Report.f1 msgs;
        ])
      [ 9; 17; 33; 65; 129 ]
  in
  Harness.Report.table
    ~title:"SWSR atomic register, alternating write/read, delays 1..10"
    ~header:
      [ "n"; "t"; "write latency"; "read latency"; "messages/op" ]
    rows;
  print_endline
    "  Shape: messages/op linear in n; latency flat (a fixed number of\n\
    \  round trips — the quorum waits grow in count, not in depth)."
