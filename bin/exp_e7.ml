(* E7 — Comparison against the baselines the paper positions itself
   against.

   (a) A classical non-self-stabilizing Byzantine-quorum register with
   unbounded timestamps: a transient fault planting an agreed huge
   timestamp at t+1 servers (or rolling the writer's counter back) wedges
   it forever; the Fig. 3 register recovers by the next write.

   (b) A quiescence-dependent regular register modelling [3]
   (Bonomi–Potop-Butucaru–Tixeuil, n >= 5t+1, no helping): under a
   continuously active writer plus a Byzantine splitter its reads starve;
   the helping mechanism removes the quiescence assumption. *)

open Registers

let poison_comparison ~seed =
  let poison = Value.str "poison" in
  (* Classical register with monotone-timestamp servers. *)
  let scn1 = Common.scenario ~seed ~params:(Common.async_params ~n:9 ~f:1) () in
  Baseline.Nonstab.install_servers ~net:scn1.Harness.Scenario.net
    (Byzantine.Adversary.servers scn1.Harness.Scenario.adversary);
  let nw = Baseline.Nonstab.writer ~net:scn1.Harness.Scenario.net ~client_id:100 ~inst:0 in
  let nr = Baseline.Nonstab.reader ~net:scn1.Harness.Scenario.net ~client_id:101 ~inst:0 in
  let plant scn =
    List.iter
      (fun s ->
        let srv = Byzantine.Adversary.server scn.Harness.Scenario.adversary s in
        let i = Server.instance srv 0 in
        i.Server.last_val <- { Messages.sn = 1_000_000; v = poison })
      [ 4; 5; 6 ]
  in
  let wedged = ref 0 in
  Common.run_jobs scn1
    [
      ( "wr",
        fun () ->
          Baseline.Nonstab.write nw (Value.int 1);
          plant scn1;
          for i = 2 to 11 do
            Baseline.Nonstab.write nw (Value.int i);
            match Baseline.Nonstab.read nr with
            | Some v when Value.equal v poison -> incr wedged
            | Some _ | None -> ()
          done );
    ];
  (* The Fig. 3 register under the identical fault. *)
  let scn2 = Common.scenario ~seed ~params:(Common.async_params ~n:9 ~f:1) () in
  let w, r = Common.atomic_pair scn2 in
  let recovered = ref 0 in
  Common.run_jobs scn2
    [
      ( "wr",
        fun () ->
          ignore (Swsr_atomic.write w (Value.int 1));
          plant scn2;
          for i = 2 to 11 do
            ignore (Swsr_atomic.write w (Value.int i));
            match Outcome.to_option (Swsr_atomic.read r) with
            | Some v when Value.equal v (Value.int i) -> incr recovered
            | Some _ | None -> ()
          done );
    ];
  Common.observe_scn scn2;
  (!wedged, !recovered)

let pressure_comparison ~seed =
  (* [3]-style at its native n = 6 >= 5t+1; ours at n = 9 = 8t+1. *)
  let run_quiescent () =
    let scn =
      Common.scenario ~seed ~params:(Common.async_params ~n:6 ~f:1) ()
    in
    Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0
      Byzantine.Behavior.equivocate;
    let w = Baseline.Quiescent.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
    let r = Baseline.Quiescent.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
    let failures = ref 0 in
    Common.run_jobs scn
      [
        ( "writer",
          fun () ->
            for i = 1 to 80 do
              Baseline.Quiescent.write w (Value.int i)
            done );
        ( "reader",
          fun () ->
            for _ = 1 to 12 do
              match Baseline.Quiescent.read ~max_iterations:4 r with
              | None -> incr failures
              | Some _ -> ()
            done );
      ];
    (!failures, Baseline.Quiescent.reader_iterations r)
  in
  let run_helping () =
    let scn =
      Common.scenario ~seed ~params:(Common.async_params ~n:9 ~f:1) ()
    in
    Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0
      Byzantine.Behavior.equivocate;
    let w, r = Common.regular_pair scn in
    let failures = ref 0 in
    Common.run_jobs scn
      [
        ( "writer",
          fun () ->
            for i = 1 to 80 do
              ignore (Swsr_regular.write w (Value.int i))
            done );
        ( "reader",
          fun () ->
            for _ = 1 to 12 do
              match
                Outcome.to_option (Swsr_regular.read ~max_iterations:4 r)
              with
              | None -> incr failures
              | Some _ -> ()
            done );
      ];
    (!failures, Swsr_regular.reader_iterations r)
  in
  (run_quiescent (), run_helping ())

let run ~seed =
  Harness.Report.section "E7: baselines — why self-stabilization and helping";
  let wedged = ref 0 and recovered = ref 0 in
  let seeds = 5 in
  for s = 0 to seeds - 1 do
    let wdg, rec_ = poison_comparison ~seed:(seed + s) in
    wedged := !wedged + wdg;
    recovered := !recovered + rec_
  done;
  Harness.Report.table
    ~title:
      "poisoned timestamp at 3 servers (t+1 agreement), 10 subsequent writes"
    ~header:[ "register"; "reads after the fault"; "outcome" ]
    [
      [
        "classical (unbounded ts)";
        Harness.Report.pct !wedged (seeds * 10);
        "stuck on the poison";
      ];
      [
        "Fig. 3 (bounded >_cd)";
        Harness.Report.pct !recovered (seeds * 10);
        "current value";
      ];
    ];
  let qf = ref 0 and qi = ref 0 and hf = ref 0 and hi = ref 0 in
  for s = 0 to seeds - 1 do
    let (a, b), (c, d) = pressure_comparison ~seed:(seed + s) in
    qf := !qf + a;
    qi := !qi + b;
    hf := !hf + c;
    hi := !hi + d
  done;
  Harness.Report.table
    ~title:
      "continuously active writer + splitter; 12 reads x 5 seeds, 4-round budget"
    ~header:[ "register"; "starved reads"; "total rounds" ]
    [
      [ "quiescence-dependent [3] (n=6)"; Harness.Report.pct !qf 60; string_of_int !qi ];
      [ "helping, Fig. 2 (n=9)"; Harness.Report.pct !hf 60; string_of_int !hi ];
    ];
  print_endline
    "  Shape: the classical register never recovers from the poisoned\n\
    \  configuration while Fig. 3 shrugs it off; without helping, the\n\
    \  quiescence-dependent reader burns extra rounds under write\n\
    \  pressure and starves outright under the scripted scheduler of E3."
