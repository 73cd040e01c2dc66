(* E9 — Cost model: messages and ss-broadcasts per operation for each
   register class, as n grows.  The paper's constructions trade
   resilience for linear-in-n message complexity per operation; the
   SWMR/MWMR compositions multiply it by the number of copies. *)

open Registers

let measure ~seed ~n ~f which =
  let params = Common.async_params ~n ~f in
  let scn = Common.scenario ~seed ~params () in
  let ops = 20 in
  (match which with
  | `Swsr_regular ->
    let w, r = Harness.Workload.regular_pair scn in
    Common.run_jobs scn
      [
        ( "wr",
          fun () ->
            for i = 1 to ops do
              ignore (Swsr_regular.write w (Value.int i));
              ignore (Swsr_regular.read r)
            done );
      ]
  | `Swsr_atomic ->
    let w, r = Harness.Workload.atomic_pair scn in
    Common.run_jobs scn
      [
        ( "wr",
          fun () ->
            for i = 1 to ops do
              ignore (Swsr_atomic.write w (Value.int i));
              ignore (Swsr_atomic.read r)
            done );
      ]
  | `Swmr ->
    let w =
      Swmr.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~base_inst:0
        ~readers:3 ()
    in
    let r =
      Swmr.reader ~net:scn.Harness.Scenario.net ~client_id:200 ~base_inst:0
        ~reader_index:0 ()
    in
    Common.run_jobs scn
      [
        ( "wr",
          fun () ->
            for i = 1 to ops do
              ignore (Swmr.write w (Value.int i));
              ignore (Swmr.read r)
            done );
      ]
  | `Mwmr ->
    let cfg = Mwmr.default_config ~m:3 in
    let p0 = Mwmr.process ~net:scn.Harness.Scenario.net ~cfg ~id:0 ~client_id:300 in
    let p1 = Mwmr.process ~net:scn.Harness.Scenario.net ~cfg ~id:1 ~client_id:301 in
    Common.run_jobs scn
      [
        ( "wr",
          fun () ->
            for i = 1 to ops do
              ignore (Mwmr.write p0 (Value.int i));
              ignore (Mwmr.read p1)
            done );
      ]);
  Common.observe_scn scn;
  let total_ops = 2 * ops in
  ( float_of_int (Harness.Scenario.messages_sent scn) /. float_of_int total_ops,
    float_of_int (Harness.Scenario.broadcasts scn) /. float_of_int total_ops )

let run ~seed =
  Harness.Report.section "E9: message cost per operation";
  let classes =
    [
      ("SWSR regular (Fig 2)", `Swsr_regular);
      ("SWSR atomic (Fig 3)", `Swsr_atomic);
      ("SWMR (3 readers)", `Swmr);
      ("MWMR (m=3)", `Mwmr);
    ]
  in
  let rows =
    List.concat_map
      (fun (label, which) ->
        List.map
          (fun (n, f) ->
            let msgs, bcasts = measure ~seed ~n ~f which in
            [
              label;
              string_of_int n;
              Harness.Report.f1 msgs;
              Harness.Report.f1 bcasts;
            ])
          [ (9, 1); (17, 2); (25, 3) ])
      classes
  in
  Harness.Report.table ~title:"alternating write/read, 40 ops per cell"
    ~header:[ "register"; "n"; "messages/op"; "ss-broadcasts/op" ]
    rows;
  print_endline
    "  Shape: O(n) messages per SWSR operation; the SWMR writer multiplies\n\
    \  by its reader count, and each MWMR operation pays m swmr_reads plus\n\
    \  one swmr_write."
