open Util
open Registers

let setup ?(seed = 7) ?(readers = 3) () =
  let scn = async_scenario ~seed () in
  let w =
    Swmr.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~base_inst:0
      ~readers ()
  in
  let rs =
    Array.init readers (fun j ->
        Swmr.reader ~net:scn.Harness.Scenario.net ~client_id:(200 + j)
          ~base_inst:0 ~reader_index:j ())
  in
  (scn, w, rs)

let test_all_readers_see_write () =
  let scn, w, rs = setup () in
  let got = Array.make 3 None in
  run_fibers scn
    [
      ( "all",
        fun () ->
          ignore (Swmr.write w (int_value 5));
          Array.iteri (fun j r ->
              got.(j) <- Outcome.to_option (Swmr.read r)) rs );
    ]
  ;
  Array.iteri
    (fun j v ->
      Alcotest.(check (option value))
        (Printf.sprintf "reader %d" j)
        (Some (int_value 5))
        v)
    got

let test_readers_are_independent_instances () =
  let scn, w, _rs = setup () in
  run_fiber scn "w" (fun () -> ignore (Swmr.write w (int_value 1)));
  check_int "one instance per reader" 3 (Array.length (Swmr.copies w))

let test_per_reader_atomicity_under_concurrency () =
  let scn, w, rs = setup ~seed:11 () in
  (* Each reader gets its own history so atomicity is checked per reader
     (the §5.1 composition guarantees per-reader atomicity). *)
  let histories = Array.map (fun _ -> Oracles.History.create ()) rs in
  let writer_history = Oracles.History.create () in
  let jobs =
    ( "writer",
      fun () ->
        let rng = Harness.Scenario.split_rng scn in
        for k = 1 to 20 do
          let v = Harness.Workload.value_for ~writer:0 k in
          let inv = Harness.Scenario.now scn in
          ignore (Swmr.write w v);
          let resp = Harness.Scenario.now scn in
          Oracles.History.record writer_history ~proc:"writer"
            ~kind:Oracles.History.Write ~inv ~resp v;
          Harness.Scenario.sleep scn (Sim.Rng.int_in rng 0 10)
        done )
    :: (Array.to_list
          (Array.mapi
             (fun j r ->
               ( Printf.sprintf "reader%d" j,
                 fun () ->
                   let rng = Harness.Scenario.split_rng scn in
                   for _ = 1 to 15 do
                     let inv = Harness.Scenario.now scn in
                     let v = Outcome.to_option (Swmr.read r) in
                     let resp = Harness.Scenario.now scn in
                     (match v with
                     | Some v ->
                       Oracles.History.record histories.(j)
                         ~proc:(Printf.sprintf "reader%d" j)
                         ~kind:Oracles.History.Read ~inv ~resp v
                     | None -> Alcotest.fail "read budget exhausted");
                     Harness.Scenario.sleep scn (Sim.Rng.int_in rng 0 10)
                   done ))
             rs))
  in
  run_fibers scn jobs;
  let cutoff =
    match Oracles.Stabilization.cutoff_from writer_history ~lo:0 with
    | Some c -> c
    | None -> Alcotest.fail "no writes"
  in
  Array.iteri
    (fun j h ->
      (* Merge this reader's reads with the writer's writes. *)
      let merged = Oracles.History.create () in
      List.iter
        (fun (o : Oracles.History.op) ->
          Oracles.History.record merged ~proc:o.proc ~kind:o.kind ~inv:o.inv
            ~resp:o.resp ?ts:o.ts ~ok:o.ok o.value)
        (Oracles.History.ops writer_history @ Oracles.History.ops h);
      let report = Oracles.Atomicity.Sw.check ~cutoff merged in
      if not (Oracles.Atomicity.Sw.is_clean report) then
        Alcotest.failf "reader %d: %a" j Oracles.Atomicity.Sw.pp report)
    histories

let test_with_byzantine () =
  let scn, w, rs = setup ~seed:12 () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 4
    Byzantine.Behavior.garbage;
  let got = Array.make 3 None in
  run_fibers scn
    [
      ( "all",
        fun () ->
          ignore (Swmr.write w (int_value 77));
          Array.iteri (fun j r ->
              got.(j) <- Outcome.to_option (Swmr.read r)) rs );
    ];
  Array.iteri
    (fun j v ->
      Alcotest.(check (option value))
        (Printf.sprintf "reader %d" j)
        (Some (int_value 77))
        v)
    got

let test_single_reader_degenerates_to_swsr () =
  let scn, w, rs = setup ~readers:1 () in
  let got = ref None in
  run_fibers scn
    [
      ( "all",
        fun () ->
          ignore (Swmr.write w (int_value 3));
          got := Outcome.to_option (Swmr.read rs.(0)) );
    ];
  Alcotest.(check (option value)) "single reader" (Some (int_value 3)) !got

(* --- the §5.1 cross-reader gap and the write-back extension (E13) --- *)

let test_cross_reader_inversion_scripted () =
  let o = Harness.Swmr_inversion.run `Paper in
  Alcotest.(check (option value)) "reader 0 saw the new value"
    (Some (int_value 2)) o.Harness.Swmr_inversion.read_r0;
  Alcotest.(check (option value)) "later reader 1 regressed"
    (Some (int_value 1)) o.Harness.Swmr_inversion.read_r1;
  check_true "cross-reader inversion exhibited" o.Harness.Swmr_inversion.inversion

let test_write_back_eliminates_inversion () =
  let o = Harness.Swmr_inversion.run `Write_back in
  Alcotest.(check (option value)) "reader 0" (Some (int_value 2))
    o.Harness.Swmr_inversion.read_r0;
  Alcotest.(check (option value)) "reader 1 informed by write-back"
    (Some (int_value 2)) o.Harness.Swmr_inversion.read_r1;
  check_false "no inversion" o.Harness.Swmr_inversion.inversion

let wb_setup ?(seed = 7) ?(readers = 3) () =
  let scn = async_scenario ~seed () in
  let net = scn.Harness.Scenario.net in
  let w = Swmr_wb.writer ~net ~client_id:100 ~base_inst:0 ~readers () in
  let rs =
    Array.init readers (fun j ->
        Swmr_wb.reader ~net ~client_id:(200 + j) ~base_inst:0 ~reader_index:j
          ~readers ())
  in
  (scn, w, rs)

let test_wb_basic () =
  let scn, w, rs = wb_setup () in
  let got = Array.make 3 None in
  run_fibers scn
    [
      ( "all",
        fun () ->
          ignore (Swmr_wb.write w (int_value 5));
          Array.iteri (fun j r ->
              got.(j) <- Outcome.to_option (Swmr_wb.read r)) rs );
    ];
  Array.iteri
    (fun j v ->
      Alcotest.(check (option value))
        (Printf.sprintf "wb reader %d" j)
        (Some (int_value 5))
        v)
    got;
  check_int "write-back writes counted" 2 (Swmr_wb.exchange_writes rs.(0))

let test_wb_byzantine () =
  let scn, w, rs = wb_setup ~seed:5 () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 2
    Byzantine.Behavior.garbage;
  let got = ref None in
  run_fibers scn
    [
      ( "all",
        fun () ->
          ignore (Swmr_wb.write w (int_value 9));
          got := Outcome.to_option (Swmr_wb.read rs.(1)) );
    ];
  Alcotest.(check (option value)) "tolerates byzantine" (Some (int_value 9)) !got

let test_wb_cross_reader_atomic_random () =
  (* Random concurrent workload with all reads merged into ONE history:
     the write-back variant must satisfy full (cross-reader) atomicity. *)
  for seed = 1 to 8 do
    let scn, w, rs = wb_setup ~seed ~readers:2 () in
    let h = scn.Harness.Scenario.history in
    let record proc kind inv v =
      Oracles.History.record h ~proc ~kind ~inv
        ~resp:(Harness.Scenario.now scn) v
    in
    run_fibers scn
      ([
         ( "writer",
           fun () ->
             for i = 1 to 15 do
               let inv = Harness.Scenario.now scn in
               ignore (Swmr_wb.write w (int_value i));
               record "writer" Oracles.History.Write inv (int_value i)
             done );
       ]
      @ (Array.to_list
           (Array.mapi
              (fun j r ->
                ( Printf.sprintf "r%d" j,
                  fun () ->
                    let rng = Harness.Scenario.split_rng scn in
                    for _ = 1 to 12 do
                      let inv = Harness.Scenario.now scn in
                      (match Outcome.to_option (Swmr_wb.read r) with
                      | Some v ->
                        record (Printf.sprintf "r%d" j) Oracles.History.Read
                          inv v
                      | None -> Alcotest.fail "read failed");
                      Harness.Scenario.sleep scn (Sim.Rng.int_in rng 0 15)
                    done ))
              rs)));
    let cutoff =
      match Oracles.Stabilization.cutoff_from h ~lo:0 with
      | Some c -> c
      | None -> Alcotest.fail "no writes"
    in
    let report = Oracles.Atomicity.Sw.check ~cutoff h in
    if not (Oracles.Atomicity.Sw.is_clean report) then
      Alcotest.failf "seed %d: %a" seed Oracles.Atomicity.Sw.pp report
  done

let tests =
  [
    case "all readers see the write" test_all_readers_see_write;
    case "per-reader instances" test_readers_are_independent_instances;
    case "per-reader atomicity" test_per_reader_atomicity_under_concurrency;
    case "byzantine server" test_with_byzantine;
    case "single reader degenerate" test_single_reader_degenerates_to_swsr;
    case "cross-reader inversion (scripted, E13)" test_cross_reader_inversion_scripted;
    case "write-back eliminates it (E13)" test_write_back_eliminates_inversion;
    case "write-back basic" test_wb_basic;
    case "write-back with byzantine" test_wb_byzantine;
    case "write-back cross-reader atomicity" test_wb_cross_reader_atomic_random;
  ]
