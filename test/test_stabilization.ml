(* The post-fault verdict on hand-built histories: segment cutoffs,
   vacuous and straddling segments, the MWMR suffix rule, issue ranking,
   the stuck override, and the verdict codec. *)

open Util
open Oracles

let t i = Sim.Vtime.of_int i

let w h inv resp v =
  History.record h ~proc:"writer" ~kind:History.Write ~inv:(t inv)
    ~resp:(t resp) (int_value v)

let r ?ok h inv resp v =
  History.record h ~proc:"reader" ~kind:History.Read ~inv:(t inv)
    ~resp:(t resp) ?ok (int_value v)

let verdict = Alcotest.testable Stab.pp_verdict Stab.verdict_equal

let kind_is want v = Alcotest.(check string) want want (Stab.verdict_kind v)

let regular = Stab.check Stab.Regular_cond

let test_cutoff_from () =
  let h = History.create () in
  check_true "no write, no cutoff" (Option.is_none (Stab.cutoff_from h ~lo:0));
  w h 0 10 1;
  w h 20 30 2;
  Alcotest.(check (option int)) "first write's completion" (Some 10)
    (Option.map Sim.Vtime.to_int (Stab.cutoff_from h ~lo:0));
  Alcotest.(check (option int)) "first write invoked at or after lo" (Some 30)
    (Option.map Sim.Vtime.to_int (Stab.cutoff_from h ~lo:1));
  check_true "nothing invoked after lo"
    (Option.is_none (Stab.cutoff_from h ~lo:21))

(* A fault at 20; the segment's first write is invoked at 30 and
   completes at 40, which is the segment's tau_stab. *)
let test_read_before_cutoff_ignored () =
  let faulted bad_read_at =
    let h = History.create () in
    w h 0 10 1;
    w h 30 40 2;
    r h bad_read_at (bad_read_at + 4) 99;
    regular ~points:[ 20 ] h
  in
  Alcotest.check verdict "bad read before the cutoff" Stab.Clean (faulted 32);
  kind_is "regularity" (faulted 45)

let test_segment_without_write_vacuous () =
  let h = History.create () in
  w h 0 10 1;
  r h 30 35 99;
  w h 70 80 2;
  r h 85 90 2;
  Alcotest.check verdict "no write in [20,60)" Stab.Clean
    (regular ~points:[ 20; 60 ] h);
  let h = History.create () in
  w h 0 10 1;
  r h 30 35 99;
  Alcotest.check verdict "no write after the point" Stab.Clean
    (regular ~points:[ 20 ] h)

let test_straddling_read_unchecked () =
  let h = History.create () in
  w h 0 10 1;
  r h 15 30 99;
  w h 22 25 2;
  Alcotest.check verdict "straddles the point at 20" Stab.Clean
    (regular ~points:[ 20 ] h);
  kind_is "regularity" (regular ~points:[] h)

(* A fault at 100 with a grace of 50.  A read invoked inside the grace
   and answered before it ends was once checked against the pre-fault
   segment (the point itself was shifted to 150); it belongs to none. *)
let test_grace_delays_segment_start () =
  let junk_in_grace ?(extra = ignore) () =
    let h = History.create () in
    w h 0 10 1;
    r h 20 30 1;
    r h 105 140 99;
    extra h;
    h
  in
  let h = junk_in_grace () in
  Alcotest.check verdict "read inside the grace is unchecked" Stab.Clean
    (Stab.check ~grace:50 Stab.Regular_cond ~points:[ 100 ] h);
  Alcotest.check verdict "atomic: the same read is unchecked" Stab.Clean
    (Stab.check ~grace:50 Stab.Sw_atomic ~points:[ 100 ] h);
  (* Shifting the point checks it before the fault. *)
  kind_is "regularity" (regular ~points:[ 150 ] h);
  (* A junk read that ends before the fault, or one after the grace,
     still counts. *)
  kind_is "regularity"
    (Stab.check ~grace:50 Stab.Regular_cond ~points:[ 100 ]
       (junk_in_grace ~extra:(fun h -> r h 40 50 99) ()));
  kind_is "regularity"
    (Stab.check ~grace:50 Stab.Regular_cond ~points:[ 100 ]
       (junk_in_grace
          ~extra:(fun h ->
            w h 160 170 2;
            r h 180 190 99)
          ()));
  Alcotest.check verdict "a good read after the grace passes" Stab.Clean
    (Stab.check ~grace:50 Stab.Regular_cond ~points:[ 100 ]
       (junk_in_grace
          ~extra:(fun h ->
            w h 160 170 2;
            r h 180 190 2)
          ()))

let genesis = Registers.Epoch.genesis ~k:3

let mw h proc inv resp v ts =
  History.record h ~proc ~kind:History.Write ~inv:(t inv) ~resp:(t resp) ~ts
    (int_value v)

(* Writes at 20 and 40 break the real-time timestamp order; every write
   from 60 on is consistent. *)
let test_mwmr_last_suffix_only () =
  let h = History.create () in
  mw h "p0" 0 10 1 (genesis, 1, 0);
  mw h "p1" 12 14 2 (genesis, 2, 1);
  mw h "p0" 20 30 3 (genesis, 5, 0);
  mw h "p1" 40 50 4 (genesis, 3, 1);
  mw h "p0" 60 70 5 (genesis, 6, 0);
  mw h "p1" 75 78 6 (genesis, 7, 1);
  History.record h ~proc:"p2" ~kind:History.Read ~inv:(t 80) ~resp:(t 90)
    ~ts:(genesis, 7, 1) (int_value 6);
  let mwmr = Stab.check Stab.Mw_atomic in
  kind_is "mw" (mwmr ~points:[] h);
  kind_is "mw" (mwmr ~points:[ 5 ] h);
  Alcotest.check verdict "the segment [5,55) is not checked" Stab.Clean
    (mwmr ~points:[ 5; 55 ] h);
  Alcotest.check verdict "the suffix starts a grace after the point"
    Stab.Clean
    (Stab.check ~grace:50 Stab.Mw_atomic ~points:[ 5 ] h)

let test_issue_ranking () =
  Alcotest.check verdict "safety outranks liveness"
    (Stab.Violation { kind = "regularity"; count = 2; detail = "a" })
    (Stab.verdict_of_issues
       [
         ("liveness", "l"); ("regularity", "a"); ("inversion", "b");
         ("regularity", "c");
       ]);
  Alcotest.check verdict "liveness alone"
    (Stab.Violation { kind = "liveness"; count = 1; detail = "l" })
    (Stab.verdict_of_issues [ ("liveness", "l") ]);
  Alcotest.check verdict "no issues" Stab.Clean (Stab.verdict_of_issues []);
  let h = History.create () in
  w h 0 10 1;
  r ~ok:false h 20 30 0;
  r h 40 45 99;
  match regular ~points:[] h with
  | Stab.Violation { kind; count; _ } ->
    Alcotest.(check string) "kind" "regularity" kind;
    check_int "liveness not counted" 1 count
  | Stab.Clean -> Alcotest.fail "expected a regularity violation"

let test_stuck_wins () =
  let h = History.create () in
  w h 0 10 1;
  r h 20 30 99;
  Alcotest.check verdict "stuck over regularity"
    (Stab.Violation
       {
         kind = "stuck";
         count = 2;
         detail = "fibers never finished: writer, reader (raised: X)";
       })
    (Stab.check ~stuck:[ "writer"; "reader (raised: X)" ] Stab.Sw_atomic
       ~points:[] h)

let test_stabilization_time () =
  let h = History.create () in
  w h 0 10 1;
  w h 22 25 2;
  r h 21 24 1 (* before the cutoff *);
  r h 26 30 99 (* flagged *);
  r h 31 35 2;
  Alcotest.(check (option int)) "first certified read" (Some 15)
    (Stab.time h ~lo:20 ~hi:max_int);
  Alcotest.(check (option int)) "none before hi" None
    (Stab.time h ~lo:20 ~hi:34)

let test_verdict_codec () =
  let round v =
    Alcotest.check
      (Alcotest.result verdict Alcotest.string)
      (Stab.verdict_kind v) (Ok v)
      (Stab.verdict_of_json (Stab.verdict_to_json v))
  in
  round Stab.Clean;
  List.iter
    (fun kind -> round (Stab.Violation { kind; count = 3; detail = "d" }))
    [ "regularity"; "inversion"; "mw"; "liveness"; "stuck" ];
  let rejects name v =
    check_true name (Result.is_error (Stab.verdict_of_json v))
  in
  let doc kind count =
    Obs.Json.Obj
      [
        ("kind", Obs.Json.Str kind);
        ("count", Obs.Json.Int count);
        ("detail", Obs.Json.Str "");
      ]
  in
  rejects "unknown kind" (doc "bogus" 1);
  rejects "zero count" (doc "stuck" 0);
  rejects "negative count" (doc "regularity" (-3));
  rejects "missing count" (Obs.Json.Obj [ ("kind", Obs.Json.Str "mw") ])

let test_family_names () =
  List.iter
    (fun f ->
      match Stab.family_of_string (Stab.family_to_string f) with
      | Ok g -> check_true (Stab.family_to_string f) (f = g)
      | Error e -> Alcotest.fail e)
    [ Stab.Regular; Stab.Atomic; Stab.Mwmr ];
  check_true "unknown family"
    (Result.is_error (Stab.family_of_string "swmr"))

let tests =
  [
    case "cutoff_from" test_cutoff_from;
    case "read before the cutoff is ignored" test_read_before_cutoff_ignored;
    case "segment without a write is vacuous"
      test_segment_without_write_vacuous;
    case "straddling read belongs to no segment"
      test_straddling_read_unchecked;
    case "grace delays a segment's start, not the previous end"
      test_grace_delays_segment_start;
    case "mwmr checked on the last suffix only" test_mwmr_last_suffix_only;
    case "safety outranks liveness" test_issue_ranking;
    case "stuck wins" test_stuck_wins;
    case "stabilization time" test_stabilization_time;
    case "verdict codec" test_verdict_codec;
    case "family names" test_family_names;
  ]
