(* E6 — Bounded epochs and sequence-space exhaustion in the MWMR register
   (Theorem 4, §5.2).

   Shrink the timestamp sequence bound so the epoch machinery actually
   fires.  Lemmas 16–18 promise atomicity from a point that follows a
   non-concurrent operation, i.e. once the epoch structure has settled;
   the experiment therefore measures both regimes: sequential operations
   (the paper's precondition holds between every two ops — the oracle must
   be perfectly clean even while epochs churn) and fully concurrent
   operations (epoch openings can race, producing transiently incomparable
   labels the oracle reports). *)

open Registers

let mk ~seed ~seq_bound =
  let m = 4 in
  let params = Common.async_params ~n:9 ~f:1 in
  let scn = Common.scenario ~seed ~params () in
  let cfg = { (Mwmr.default_config ~m) with seq_bound } in
  let procs =
    Array.init m (fun i ->
        Mwmr.process ~net:scn.Harness.Scenario.net ~cfg ~id:i
          ~client_id:(300 + i))
  in
  (scn, cfg, procs)

let tally report =
  List.partition
    (fun (v : Oracles.Atomicity.Mw.violation) ->
      v.kind = "incomparable-epochs")
    report.Oracles.Atomicity.Mw.violations
  |> fun (inc, other) -> (List.length inc, List.length other)

(* Sequential regime: one fiber performs every operation, round-robin over
   the processes. *)
let run_sequential ~seed ~seq_bound =
  let scn, cfg, procs = mk ~seed ~seq_bound in
  let m = Array.length procs in
  Common.run_jobs scn
    [
      ( "seq",
        fun () ->
          for k = 1 to 40 do
            let p = procs.(k mod m) in
            let pid = Mwmr.id p in
            if k mod 2 = 0 then begin
              let v = Harness.Workload.value_for ~writer:(100 + pid) k in
              let inv = Harness.Scenario.now scn in
              ignore (Mwmr.write p v);
              let resp = Harness.Scenario.now scn in
              match Mwmr.last_write_timestamp p with
              | Some (e, s) ->
                Oracles.History.record scn.Harness.Scenario.history
                  ~proc:(Printf.sprintf "p%d" pid)
                  ~kind:Oracles.History.Write ~inv ~resp ~ts:(e, s, pid) v
              | None -> ()
            end
            else begin
              let inv = Harness.Scenario.now scn in
              let result = Outcome.to_option (Mwmr.read_timestamped p) in
              let resp = Harness.Scenario.now scn in
              List.iter
                (fun (v, e, s) ->
                  Oracles.History.record scn.Harness.Scenario.history
                    ~proc:(Printf.sprintf "p%d" pid)
                    ~kind:Oracles.History.Write ~inv ~resp ~ts:(e, s, pid) v)
                (Mwmr.take_restamps p);
              match result with
              | Some (v, e, s, j) ->
                Oracles.History.record scn.Harness.Scenario.history
                  ~proc:(Printf.sprintf "p%d" pid)
                  ~kind:Oracles.History.Read ~inv ~resp ~ts:(e, s, j) v
              | None -> ()
            end
          done );
    ];
  let epochs = Array.fold_left (fun a p -> a + Mwmr.epochs_opened p) 0 procs in
  Common.observe_scn scn;
  let report =
    Oracles.Atomicity.Mw.check ~tie:cfg.Mwmr.tie scn.Harness.Scenario.history
  in
  (epochs, tally report)

(* Concurrent regime: one fiber per process. *)
let run_concurrent ~seed ~seq_bound =
  let scn, cfg, procs = mk ~seed ~seq_bound in
  Common.run_jobs scn
    (Array.to_list
       (Array.mapi
          (fun i p ->
            ( Printf.sprintf "p%d" i,
              fun () ->
                Harness.Workload.mwmr_job scn
                  ~proc:(Printf.sprintf "p%d" i)
                  ~process:p ~ops:10 ~write_ratio:0.5
                  ~gap:(Harness.Workload.gap 0 40) () ))
          procs));
  let epochs = Array.fold_left (fun a p -> a + Mwmr.epochs_opened p) 0 procs in
  let report =
    Oracles.Atomicity.Mw.check ~tie:cfg.Mwmr.tie scn.Harness.Scenario.history
  in
  (epochs, tally report)

let run ~seed =
  Harness.Report.section "E6: epoch machinery under sequence exhaustion (Thm 4)";
  let seeds = 4 in
  let block title runner =
    let rows =
      List.map
        (fun seq_bound ->
          let epochs = ref 0 and inc = ref 0 and other = ref 0 in
          for s = 0 to seeds - 1 do
            let e, (i, o) = runner ~seed:(seed + s) ~seq_bound in
            epochs := !epochs + e;
            inc := !inc + i;
            other := !other + o
          done;
          [
            (if seq_bound > 1 lsl 32 then "2^61" else string_of_int seq_bound);
            string_of_int !epochs;
            string_of_int !inc;
            string_of_int !other;
          ])
        [ 2; 4; 16; 1 lsl 61 ]
    in
    Harness.Report.table ~title
      ~header:
        [ "seq bound"; "epochs opened"; "incomparable pairs"; "other violations" ]
      rows
  in
  block "sequential operations (Lemma 16's precondition holds)" run_sequential;
  block "fully concurrent operations (4 writers racing)" run_concurrent;
  print_endline
    "  Shape: epoch wraps are atomicity-transparent while every pair of\n\
    \  live labels stays comparable (bounds >= 4 here; a fortiori the\n\
    \  paper's 2^64 within any system lifespan).  Exhausting the space\n\
    \  every couple of writes outruns label propagation — distant\n\
    \  generations become incomparable, and racing openings mint\n\
    \  incomparable labels directly.  That is exactly the regime the\n\
    \  'practically stabilizing' qualifier and Lemma 16's settled-epoch\n\
    \  precondition exclude: one epoch change per 2^64 writes."
