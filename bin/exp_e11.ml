(* E11 — The registers over genuinely unreliable links.

   The paper's model gives the clients reliable FIFO links and the
   ss-broadcast abstraction; footnote 3 sketches how to build those from
   bounded-capacity unreliable links.  E8 validated that construction in
   isolation; here the whole stack runs together: the Fig. 3 register over
   the engine-integrated self-stabilizing transport (stop-and-wait,
   bounded wrapping tags, retransmission), on links that lose, duplicate
   and reorder packets.  Correctness must be unchanged; the price is paid
   in packets and latency. *)

open Registers

let run_one ~seed ~loss =
  let params = Common.async_params ~n:9 ~f:1 in
  let medium = Net.Stabilizing { loss; dup = 0.1; retrans = 30 } in
  let scn = Common.scenario ~seed ~medium ~params () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 2
    Byzantine.Behavior.garbage;
  let w, r = Common.atomic_pair scn in
  let ops = 15 in
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
  let h = scn.Harness.Scenario.history in
  let cutoff =
    Option.value ~default:Sim.Vtime.zero
      (Oracles.Stabilization.cutoff_from h ~lo:0)
  in
  let report = Oracles.Atomicity.Sw.check ~cutoff h in
  let lat =
    Harness.Metrics.latencies ~kind:Oracles.History.Read h
  in
  let pkts =
    Obs.Metrics.counter (Sim.Engine.metrics scn.Harness.Scenario.engine) "net.pkts"
  in
  ( Oracles.Atomicity.Sw.is_clean report,
    float_of_int pkts /. float_of_int (2 * ops),
    (Obs.Metrics.summary lat).Obs.Metrics.mean )

let run ~seed =
  Harness.Report.section
    "E11: the Fig. 3 register over lossy/duplicating/reordering links";
  let rows =
    List.map
      (fun loss ->
        let clean = ref true and pkts = ref 0.0 and lat = ref 0.0 in
        let seeds = 4 in
        for s = 0 to seeds - 1 do
          let c, p, l = run_one ~seed:(seed + s) ~loss in
          clean := !clean && c;
          pkts := !pkts +. p;
          lat := !lat +. l
        done;
        let k = float_of_int seeds in
        [
          Printf.sprintf "%.0f%%" (loss *. 100.0);
          (if !clean then "atomic" else "VIOLATED");
          Harness.Report.f1 (!pkts /. k);
          Harness.Report.f1 (!lat /. k);
        ])
      [ 0.0; 0.1; 0.3; 0.5 ]
  in
  Harness.Report.table
    ~title:
      "n=9, t=1, one garbage Byzantine server; stop-and-wait ss-transport,\n\
       retransmission every 30 ticks; 15 write+read pairs x 4 seeds"
    ~header:[ "packet loss"; "oracle verdict"; "packets/op"; "read latency" ]
    rows;
  print_endline
    "  Shape: atomicity is loss-invariant — the self-stabilizing transport\n\
    \  reconstructs the model's reliable FIFO links — while packets/op and\n\
    \  latency grow with loss (retransmissions), exactly the footnote-3\n\
    \  trade."
