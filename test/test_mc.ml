open Util

(* lib/mc: bounded model checker over the register protocols. *)

let tiny_cfg =
  {
    Mc.Config.family = Mc.Config.Regular;
    n = 3;
    f = 0;
    byz = [];
    writes = 1;
    reads = 1;
    read_budget = 2;
    menu = [];
    oracle = Mc.Config.Family_default;
  }

(* Declared fault bound t=1 but two silent Byzantine servers: the n-f ack
   quorum is unreachable, so every execution deadlocks the clients. *)
let overbound_cfg =
  {
    tiny_cfg with
    Mc.Config.n = 9;
    f = 1;
    byz = [ (0, Mc.Config.Silent); (1, Mc.Config.Silent) ];
    read_budget = 8;
  }

let parse_json path =
  match Obs.Json.parse (Obs.File.read path) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: parse error: %s" path e

(* The codes [Mc.Sys.enabled_codes] writes at [sys], in order. *)
let enabled sys =
  let b = Mc.Sys.codes () in
  Mc.Sys.enabled_codes sys b;
  List.init b.Mc.Sys.len (fun i -> b.Mc.Sys.buf.(i))

(* Whether code [c] fires a corruption-menu item at [sys]. *)
let is_corrupt sys c =
  match Mc.Sys.move_of_code (Mc.Sys.config sys) c with
  | Mc.Sys.Corrupt _ -> true
  | Mc.Sys.Deliver _ | Mc.Sys.Tick _ -> false

(* The committed example artifacts, copied into the build tree by the
   test stanza's deps. *)
let examples = "../examples/mc"

(* --- exhaustive verification of a tiny in-bound configuration ------- *)

let test_tiny_exhaustive_clean () =
  let o = Mc.Checker.search tiny_cfg in
  check_true "clean" (o.Mc.Checker.verdict = Mc.Checker.Clean);
  check_true "exhaustive (no budget hit)" o.Mc.Checker.exhaustive;
  check_true "explored something" (o.Mc.Checker.stats.Mc.Checker.states > 0)

(* Sleep sets + symmetry must not change the verdict, only the state
   count: re-search without any reduction and compare. *)
let test_reduction_soundness_cross_check () =
  let reduced = Mc.Checker.search ~reduction:Mc.Checker.Sleep_sets tiny_cfg in
  let full = Mc.Checker.search ~reduction:Mc.Checker.No_reduction tiny_cfg in
  check_true "both exhaustive"
    (reduced.Mc.Checker.exhaustive && full.Mc.Checker.exhaustive);
  check_true "same verdict"
    (Stab.same_kind reduced.Mc.Checker.verdict
       full.Mc.Checker.verdict);
  (* No state-count inequality: sleep-set subsumption may re-expand a
     state the plain visited set would prune (different sleep sets), so
     only the verdicts are comparable. *)
  check_true "reduction skipped something"
    (reduced.Mc.Checker.stats.Mc.Checker.sleep_skips
     + reduced.Mc.Checker.stats.Mc.Checker.sym_skips
    > 0)

(* A shuffled exploration order reaches the default order's exhaustive
   verdict on the tiny config, and the same seed gives the same run
   twice. *)
let test_order_seed_deterministic () =
  let a = Mc.Checker.search ~seed:5 tiny_cfg in
  let b = Mc.Checker.search ~seed:5 tiny_cfg in
  check_true "seeded run is exhaustive" a.Mc.Checker.exhaustive;
  check_true "seeded verdict matches default order"
    (Stab.same_kind a.Mc.Checker.verdict
       (Mc.Checker.search tiny_cfg).Mc.Checker.verdict);
  check_int "same seed, same exploration"
    a.Mc.Checker.stats.Mc.Checker.states
    b.Mc.Checker.stats.Mc.Checker.states

(* --- the negative run: violation found, shrunk, replayed ------------ *)

let test_overbound_stuck_found_and_replayable () =
  let r = Mc.Checker.check overbound_cfg in
  (match r.Mc.Checker.outcome.Mc.Checker.verdict with
  | Mc.Checker.Violation { kind = "stuck"; _ } -> ()
  | v -> Alcotest.failf "expected stuck, got %s" (Stab.verdict_kind v));
  match r.Mc.Checker.cex with
  | None -> Alcotest.fail "violation produced no counterexample"
  | Some cex -> (
    check_true "shrinker ran" (r.Mc.Checker.shrink_runs > 0);
    match Mc.Checker.replay cex with
    | Ok v ->
      check_true "replay reproduces the verdict"
        (Stab.verdict_equal v cex.Mc.Checker.verdict)
    | Error e -> Alcotest.failf "replay failed: %s" e)

(* The target filter skips violations of other kinds instead of stopping
   on them. *)
let test_target_filter_skips_other_kinds () =
  let budgets = { Mc.Checker.max_states = 2_000; max_depth = 10_000 } in
  let o = Mc.Checker.search ~budgets ~target:"inversion" overbound_cfg in
  check_true "stuck terminals do not end the hunt"
    (o.Mc.Checker.verdict = Mc.Checker.Clean);
  check_true "they are counted instead"
    (o.Mc.Checker.stats.Mc.Checker.off_target > 0)

(* --- cex artifacts: JSON round trip and the committed examples ------ *)

let test_cex_json_round_trip () =
  let r = Mc.Checker.check overbound_cfg in
  let cex =
    match r.Mc.Checker.cex with
    | Some c -> c
    | None -> Alcotest.fail "no counterexample"
  in
  match Mc.Checker.cex_of_json (Mc.Checker.cex_to_json cex) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok c ->
    check_true "trace survives"
      (List.for_all2 Mc.Sys.move_equal c.Mc.Checker.trace
         cex.Mc.Checker.trace);
    check_true "verdict survives"
      (Stab.verdict_equal c.Mc.Checker.verdict cex.Mc.Checker.verdict);
    check_true "digest survives"
      (String.equal c.Mc.Checker.digest cex.Mc.Checker.digest)

let replay_committed name () =
  let path = Filename.concat examples name in
  match Mc.Checker.cex_of_json (parse_json path) with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok cex -> (
    match Mc.Checker.replay cex with
    | Ok v ->
      check_true "replay reproduces the recorded verdict bit-for-bit"
        (Stab.verdict_equal v cex.Mc.Checker.verdict)
    | Error e -> Alcotest.failf "%s: replay failed: %s" path e)

(* An open finding, pinned as found: after the writer's sequence number
   is corrupted to a value cd-older than the one the reader adopted
   (half the modulus plus 4), Fig. 3 at n = 3 lets read R[28,40] return
   the first write after the second completed.  Whether the defect is in
   the implementation or in the oracle's cut is a ROADMAP item; this
   pin moves when it is settled.  The search regenerates the committed
   counterexample byte for byte, and the file replays. *)
let test_writer_sn_cex_pinned () =
  let path = Filename.concat examples "mc-atomic-writer-sn.json" in
  let committed = Obs.File.read path in
  match Mc.Checker.cex_of_json (parse_json path) with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok cex -> (
    check_int "40 moves" 40 (List.length cex.Mc.Checker.trace);
    check_true "regularity x1, reader R[28,40] returns 1"
      (Stab.verdict_equal cex.Mc.Checker.verdict
         (Stab.Violation
            { kind = "regularity"; count = 1; detail = "reader R[28,40] 1" }));
    (match Mc.Checker.replay cex with
    | Ok v ->
      check_true "replay reproduces the recorded verdict"
        (Stab.verdict_equal v cex.Mc.Checker.verdict)
    | Error e -> Alcotest.failf "%s: replay failed: %s" path e);
    match (Mc.Checker.check cex.Mc.Checker.config).Mc.Checker.cex with
    | None -> Alcotest.fail "the search no longer finds the counterexample"
    | Some c ->
      Alcotest.(check string)
        "the search regenerates the committed bytes" committed
        (Obs.Json.to_string_pretty (Mc.Checker.cex_to_json c) ^ "\n"))

(* --- guided witness schedules --------------------------------------- *)

(* The committed witness drives the regular protocol (judged against the
   SW-atomicity oracle) into the paper's Fig. 1 new/old inversion: a
   second write lands on 3 of 6 servers, one read quorum sees all three
   fresh copies, the next read quorum sees only two. *)
let test_guided_witness_finds_inversion () =
  let path = Filename.concat examples "inversion-witness.json" in
  let cfg, schedule =
    match Mc.Checker.guide_of_json (parse_json path) with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  let r = Mc.Checker.guided ~shrink_violations:false cfg schedule in
  match r.Mc.Checker.outcome.Mc.Checker.verdict with
  | Mc.Checker.Violation { kind = "inversion"; _ } -> ()
  | v ->
    Alcotest.failf "expected inversion, got %s" (Stab.verdict_kind v)

(* The codes boundary: a schedule read from an artifact may name moves
   the deployment lacks, here a delivery to server 9 at n = 3 and a menu
   item past a one-item menu.  A guided run skips them, as it skips any
   move that cannot fire, and reaches exactly the run of the guide
   without them; a strict replay refuses the first, naming it. *)
let test_moves_outside_the_deployment () =
  let path = Filename.concat examples "mc-atomic-writer-sn.json" in
  let cex =
    match Mc.Checker.cex_of_json (parse_json path) with
    | Ok c -> c
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  let cfg = cex.Mc.Checker.config in
  check_int "n = 3" 3 cfg.Mc.Config.n;
  check_int "a one-item menu" 1 (List.length cfg.Mc.Config.menu);
  let far = Mc.Sys.Deliver { client = 100; server = 9; to_server = true }
  and past = Mc.Sys.Corrupt 5 in
  let doctored =
    List.concat
      (List.mapi
         (fun i mv ->
           if i = 3 then [ far; mv ] else if i = 10 then [ past; mv ] else [ mv ])
         cex.Mc.Checker.trace)
  in
  let run schedule = Mc.Checker.guided cfg schedule in
  let plain = run cex.Mc.Checker.trace and skipped = run doctored in
  check_true "the guide violates"
    (not (Stab.same_kind plain.Mc.Checker.outcome.Mc.Checker.verdict Stab.Clean));
  check_true "the same verdict"
    (Stab.verdict_equal plain.Mc.Checker.outcome.Mc.Checker.verdict
       skipped.Mc.Checker.outcome.Mc.Checker.verdict);
  check_true "the same fired trace"
    (plain.Mc.Checker.outcome.Mc.Checker.trace
    = skipped.Mc.Checker.outcome.Mc.Checker.trace);
  check_true "the same shrunk counterexample"
    (plain.Mc.Checker.cex = skipped.Mc.Checker.cex);
  let refused trace =
    match Mc.Checker.replay { cex with Mc.Checker.trace } with
    | Ok _ -> "replayed"
    | Error e -> e
  in
  Alcotest.(check string) "replay names the far delivery"
    "move 3 (deliver link:c100->s9) did not apply"
    (refused doctored);
  Alcotest.(check string) "replay names the menu item past the menu"
    "move 0 (corrupt 5) did not apply"
    (refused (past :: cex.Mc.Checker.trace))

(* --- golden fingerprints ---------------------------------------------- *)

(* Committed mc artifacts carry terminal fingerprints, so the renderer's
   bytes are part of the artifact format.  Each walk fires seeded random
   moves through [Mc.Sys] (a pending menu item fires as soon as it is
   enabled at or after step [corrupt_at]) and pins the final digest, the
   final canonical renaming, and one digest over every visited state's
   fingerprint, renaming and representative map. *)
type walk = {
  w_name : string;
  w_cfg : Mc.Config.t;
  w_seed : int;
  w_steps : int;
  w_corrupt_at : int;
  w_fp : string;
  w_ren : int list;
  w_trail : string;
}

let n4_silent =
  {
    tiny_cfg with
    Mc.Config.n = 4;
    f = 1;
    byz = [ (0, Mc.Config.Silent) ];
  }

let golden_walks =
  [
    {
      w_name = "regular n4 silent";
      w_cfg = n4_silent;
      w_seed = 1;
      w_steps = 60;
      w_corrupt_at = max_int;
      w_fp = "d8674ff97e20302085e87cd9b8488e48";
      w_ren = [ 3; 1; 2; 0 ];
      w_trail = "d2da7a30079a8364d3dae24b2109b168";
    };
    {
      w_name = "regular corrupt_server + collude";
      w_cfg =
        {
          n4_silent with
          Mc.Config.byz = [ (3, Mc.Config.Collude { sn = 5; v = 77 }) ];
          menu = [ Mc.Config.Corrupt_server { server = 1; sn = 9; v = 99 } ];
        };
      w_seed = 2;
      w_steps = 60;
      w_corrupt_at = 3;
      w_fp = "004685b11f3dcb472b62760bb4e59614";
      w_ren = [ 1; 0; 2; 3 ];
      w_trail = "d4af86feffa0ff8489b179d52655a033";
    };
    {
      w_name = "regular corrupt_round (ordered mailbox)";
      w_cfg =
        {
          tiny_cfg with
          Mc.Config.menu =
            [ Mc.Config.Corrupt_round { client = 101; round = 0 } ];
        };
      w_seed = 3;
      w_steps = 60;
      w_corrupt_at = 4;
      w_fp = "4c832a3c7481bef422885e9e5bb25bfd";
      w_ren = [ 0; 1; 2 ];
      w_trail = "89b130aeabd93bfc518384c2abbf123a";
    };
    {
      w_name = "regular tied anonymous servers";
      w_cfg = tiny_cfg;
      w_seed = 4;
      w_steps = 60;
      w_corrupt_at = max_int;
      w_fp = "cc1b64512166c456f643a6802427d8ee";
      w_ren = [ 0; 1; 2 ];
      w_trail = "ba008cda6f7e25d364e56590d2428302";
    };
    {
      w_name = "regular mailbox references break a block tie";
      w_cfg = tiny_cfg;
      w_seed = 13;
      w_steps = 60;
      w_corrupt_at = max_int;
      w_fp = "69cea8c5ddaa389b5503de206350ae8c";
      w_ren = [ 0; 1; 2 ];
      w_trail = "a1b1ec1d3df9840f796957c2877c0272";
    };
    {
      w_name = "regular ordered mailbox references";
      w_cfg =
        {
          tiny_cfg with
          Mc.Config.menu =
            [ Mc.Config.Corrupt_round { client = 101; round = 0 } ];
        };
      w_seed = 2;
      w_steps = 60;
      w_corrupt_at = max_int;
      w_fp = "aaf29f81a99646c4c876e7ca19a79819";
      w_ren = [ 0; 1; 2 ];
      w_trail = "4dae1b4daf2a25805676b76cd4493156";
    };
    {
      w_name = "atomic reader/writer corruption";
      w_cfg =
        {
          n4_silent with
          Mc.Config.family = Mc.Config.Atomic;
          menu =
            [
              Mc.Config.Corrupt_reader { pwsn = 3; v = 5 };
              Mc.Config.Corrupt_writer_sn 7;
            ];
        };
      w_seed = 5;
      w_steps = 60;
      w_corrupt_at = 2;
      w_fp = "4f41bc2f6f1a3dabceb52a85b75300c0";
      w_ren = [ 3; 0; 1; 2 ];
      w_trail = "39609a28d3398c68609a555345c88495";
    };
    {
      w_name = "mwmr crash_recover";
      w_cfg =
        {
          n4_silent with
          Mc.Config.family = Mc.Config.Mwmr;
          byz = [];
          menu = [ Mc.Config.Crash_recover { server = 2 } ];
        };
      w_seed = 6;
      w_steps = 120;
      w_corrupt_at = 5;
      w_fp = "d3c4c6347d61dbe25b23c4f615492ab1";
      w_ren = [ 2; 3; 0; 1 ];
      w_trail = "f7e147d3ff77a57251628fc38f257383";
    };
  ]

(* Returns (final hex, final renaming, trail hex, corruptions fired,
   whether some state had two servers in one automorphism class). *)
let run_walk w =
  let st = Random.State.make [| w.w_seed |] in
  let sys = Mc.Sys.create w.w_cfg in
  let n = w.w_cfg.Mc.Config.n in
  let trail = Buffer.create 4096 in
  let tied = ref false in
  let record () =
    let fp, ren, rep = Mc.Sys.fingerprint_ex sys in
    Buffer.add_string trail fp;
    for s = 0 to n - 1 do
      if rep s <> s then tied := true;
      Buffer.add_string trail (Printf.sprintf "|%d>%d~%d" s (ren s) (rep s))
    done;
    Buffer.add_char trail '\n';
    (fp, List.init n ren)
  in
  let rec go k last =
    if k >= w.w_steps then last
    else
      match enabled sys with
      | [] -> last
      | moves ->
        let mv =
          match List.find_opt (is_corrupt sys) moves with
          | Some c when k >= w.w_corrupt_at -> Some c
          | _ -> List.nth_opt moves (Random.State.int st (List.length moves))
        in
        check_true "walk move applies"
          (Option.fold ~none:false ~some:(Mc.Sys.apply sys) mv);
        go (k + 1) (record ())
  in
  let fp, ren = go 0 (record ()) in
  ( fp,
    ren,
    Digest.to_hex (Digest.string (Buffer.contents trail)),
    List.length (Mc.Sys.corrupt_times sys),
    !tied )

let test_golden_fingerprint w () =
  let fp, ren, trail, fired, _ = run_walk w in
  if w.w_corrupt_at < max_int then
    check_true "the walk fired its menu items"
      (fired = List.length w.w_cfg.Mc.Config.menu);
  check_true "final fingerprint" (String.equal fp w.w_fp);
  check_true "final renaming" (ren = w.w_ren);
  check_true "every state's fingerprint and renaming"
    (String.equal trail w.w_trail)

let test_golden_walks_cover_ties () =
  check_true "some walk reaches tied anonymous servers"
    (List.exists
       (fun w ->
         let _, _, _, _, tied = run_walk w in
         tied)
       golden_walks)

(* --- cloned states ------------------------------------------------------ *)

(* One config per family, with every corruption kind the family admits
   on the menu and a colluding server, so walks cross server, client,
   round-tag and crash-recovery corruption. *)
let clone_cfgs =
  let server = Mc.Config.Corrupt_server { server = 1; sn = 9; v = 99 } in
  let crash = Mc.Config.Crash_recover { server = 2 } in
  let byz = [ (3, Mc.Config.Collude { sn = 5; v = 77 }) ] in
  [|
    {
      n4_silent with
      Mc.Config.byz;
      menu =
        [ server; Mc.Config.Corrupt_round { client = 101; round = 0 }; crash ];
    };
    {
      n4_silent with
      Mc.Config.family = Mc.Config.Atomic;
      byz;
      menu =
        [
          server; Mc.Config.Corrupt_round { client = 100; round = 3 }; crash;
          Mc.Config.Corrupt_reader { pwsn = 3; v = 5 };
          Mc.Config.Corrupt_writer_sn 7;
        ];
    };
    {
      n4_silent with
      Mc.Config.family = Mc.Config.Mwmr;
      byz;
      menu =
        [ server; Mc.Config.Corrupt_round { client = 301; round = 0 }; crash ];
    };
  |]

(* Fire up to [steps] uniformly drawn enabled moves; the moves fired. *)
let random_walk st sys steps =
  let rec go k acc =
    match enabled sys with
    | [] -> List.rev acc
    | _ when k = 0 -> List.rev acc
    | moves ->
      let moves = Array.of_list moves in
      let mv = moves.(Random.State.int st (Array.length moves)) in
      check_true "walk move applies" (Mc.Sys.apply sys mv);
      go (k - 1) (mv :: acc)
  in
  go steps []

(* A state's search key, through buffers of its own. *)
let keyed sys = Mc.Sys.search_key (Mc.Sys.scratch (Mc.Sys.config sys)) sys

(* The visited set's key of a state, without the renaming maps. *)
let search_key sys =
  let k1, k2, _, _ = keyed sys in
  (k1, k2)

(* A clone starts equal to its original and evolves independently: the
   original's fingerprint, menu and history stay put while the clone
   walks on, and the same moves then bring both to the same state. *)
let prop_clone_isolation =
  QCheck.Test.make ~count:60 ~name:"a cloned state evolves independently"
    QCheck.(
      quad (int_range 0 2) (int_range 1 100_000) (int_range 0 40)
        (int_range 1 30))
    (fun (family, seed, prefix, steps) ->
      let cfg = clone_cfgs.(family) in
      let st = Random.State.make [| seed |] in
      let sys = Mc.Sys.create cfg in
      ignore (random_walk st sys prefix);
      let fp = Mc.Sys.fingerprint sys in
      let key = search_key sys in
      let moves = enabled sys in
      let ops = Oracles.History.ops (Mc.Sys.history sys) in
      let copy = Mc.Sys.clone sys in
      let same_start = String.equal (Mc.Sys.fingerprint copy) fp in
      let walked = random_walk st copy steps in
      let copy_key = search_key copy in
      let untouched =
        String.equal (Mc.Sys.fingerprint sys) fp
        && search_key sys = key
        && enabled sys = moves
        && Oracles.History.ops (Mc.Sys.history sys) = ops
      in
      List.iter (fun mv -> ignore (Mc.Sys.apply sys mv)) walked;
      same_start && untouched
      (* the clone's key stays put while its original moves on *)
      && search_key copy = copy_key
      && String.equal (Mc.Sys.fingerprint sys) (Mc.Sys.fingerprint copy))

(* --- fingerprints of walked and replayed states ------------------------- *)

(* What a fingerprint tells the checker: the digest, and the renaming and
   representative maps on every server slot. *)
let fingerprint_view sys =
  let d, ren, rep = Mc.Sys.fingerprint_ex sys in
  let n = (Mc.Sys.config sys).Mc.Config.n in
  (d, Array.init n ren, Array.init n rep)

(* The same moves on a fresh state that was never fingerprinted or
   keyed. *)
let replay cfg moves =
  let sys = Mc.Sys.create cfg in
  List.iter (fun mv -> check_true "replayed move applies" (Mc.Sys.apply sys mv)) moves;
  sys

(* A state fingerprinted after every step must read exactly as a cold
   replay of its moves: a fingerprint caches nothing in the state.
   Halfway, the walk goes on in a clone, and the state it left must still
   read as its own replay once the clone has walked away. *)
let prop_warm_fingerprint_is_cold =
  QCheck.Test.make ~count:60 ~name:"a warm fingerprint equals a cold one"
    QCheck.(triple (int_range 0 2) (int_range 1 100_000) (int_range 0 60))
    (fun (family, seed, steps) ->
      let cfg = clone_cfgs.(family) in
      let st = Random.State.make [| seed |] in
      let cold fired = fingerprint_view (replay cfg (List.rev fired)) in
      let rec walk sys k fired =
        fingerprint_view sys = cold fired
        &&
        match enabled sys with
        | [] -> true
        | _ when k = steps -> true
        | moves ->
          let moves = Array.of_list moves in
          let mv = moves.(Random.State.int st (Array.length moves)) in
          let next = if k = steps / 2 then Mc.Sys.clone sys else sys in
          check_true "walk move applies" (Mc.Sys.apply next mv);
          walk next (k + 1) (mv :: fired)
          && (next == sys || fingerprint_view sys = cold fired)
      in
      walk (Mc.Sys.create cfg) 0 [])

(* A corruption fires only while some client runs, the condition under
   which [enabled_codes] offers it: at a terminal state [apply] refuses
   one, raising under [strict] and returning [false] otherwise. *)
let test_terminal_refuses_corruption () =
  let cfg =
    { tiny_cfg with
      Mc.Config.menu = [ Mc.Config.Corrupt_server { server = 0; sn = 9; v = 99 } ] }
  in
  let sys = Mc.Sys.create cfg in
  let rec complete () =
    match List.filter (fun c -> not (is_corrupt sys c)) (enabled sys) with
    | [] -> ()
    | c :: _ ->
      check_true "completion move applies" (Mc.Sys.apply sys c);
      complete ()
  in
  complete ();
  check_true "terminal" (enabled sys = []);
  let corrupt0 = Mc.Sys.code_of_move cfg (Mc.Sys.Corrupt 0) in
  check_true "lenient apply refuses" (not (Mc.Sys.apply ~strict:false sys corrupt0));
  Alcotest.check_raises "strict apply raises"
    (Invalid_argument "Mc.Sys.apply: no client is running (corrupt 0)") (fun () ->
      ignore (Mc.Sys.apply sys corrupt0))

(* --- typed moves against their label-string definitions --------------- *)

(* Every link of an n = 12 deployment: two clients, both directions,
   server ids past one digit, where decimal and numeric order part. *)
let n12_links =
  List.concat_map
    (fun client ->
      List.concat_map
        (fun server ->
          [
            Mc.Sys.Deliver { client; server; to_server = true };
            Mc.Sys.Deliver { client; server; to_server = false };
          ])
        (List.init 12 Fun.id))
    [ 100; 101 ]

let label mv =
  let s = Mc.Sys.move_to_string mv in
  String.sub s 8 (String.length s - 8)

(* The endpoints of a "link:<src>-><dst>" label. *)
let label_endpoints l =
  let name = String.sub l 5 (String.length l - 5) in
  let j = String.index name '-' in
  (String.sub name 0 j, String.sub name (j + 2) (String.length name - j - 2))

(* Every "s<digits>" token of a label through [ren]. *)
let rename_label ren l =
  let src, dst = label_endpoints l in
  let token t =
    if Char.equal t.[0] 's' then
      "s" ^ string_of_int (ren (int_of_string (String.sub t 1 (String.length t - 1))))
    else t
  in
  "link:" ^ token src ^ "->" ^ token dst

let sign c = Int.compare c 0

let n12_sys = Mc.Sys.create { n4_silent with Mc.Config.n = 12 }

let test_n12_moves_match_labels () =
  let cfg = Mc.Sys.config n12_sys in
  let code = Mc.Sys.code_of_move cfg in
  List.iter
    (fun a ->
      check_true ("renders " ^ label a) (String.starts_with ~prefix:"link:" (label a));
      List.iter
        (fun b ->
          let la = label a and lb = label b in
          check_int
            (Printf.sprintf "compare %s %s" la lb)
            (sign (String.compare la lb))
            (sign (Mc.Sys.compare_move a b));
          check_bool
            (Printf.sprintf "equal %s %s" la lb)
            (String.equal la lb) (Mc.Sys.move_equal a b);
          let sa, da = label_endpoints la and sb, db = label_endpoints lb in
          check_bool
            (Printf.sprintf "independent %s %s" la lb)
            (not (List.exists (fun x -> List.mem x [ sb; db ]) [ sa; da ]))
            (Mc.Sys.independent cfg (code a) (code b)))
        n12_links;
      (* a link's slot under a renaming is the slot of the link its
         renamed label names *)
      List.iter
        (fun ren ->
          let renamed = rename_label ren (label a) in
          let b = List.find (fun b -> String.equal (label b) renamed) n12_links in
          check_int ("slot of " ^ label a ^ " renamed")
            (code b) (Mc.Sys.rename_link cfg ren (code a)))
        [ Fun.id; (fun s -> 11 - s); (fun s -> (s * 5) mod 12) ])
    n12_links;
  check_true "every link has its own slot below links"
    (List.sort Int.compare (List.map code n12_links)
    = List.init (Mc.Sys.links cfg) Fun.id);
  (* Deliveries, then ticks, then corruptions, each kind by index. *)
  let first = Mc.Sys.Deliver { client = 100; server = 0; to_server = true } in
  let kinds =
    [ first; Mc.Sys.Tick 0; Mc.Sys.Tick 10; Mc.Sys.Tick 2;
      Mc.Sys.Corrupt 0; Mc.Sys.Corrupt 10; Mc.Sys.Corrupt 2 ]
  in
  check_true "kind order"
    (List.equal Mc.Sys.move_equal
       (List.sort Mc.Sys.compare_move (List.rev kinds))
       [ first; Mc.Sys.Tick 0; Mc.Sys.Tick 2; Mc.Sys.Tick 10;
         Mc.Sys.Corrupt 0; Mc.Sys.Corrupt 2; Mc.Sys.Corrupt 10 ]);
  check_false "a tick is dependent"
    (Mc.Sys.independent cfg (code (Mc.Sys.Tick 0)) (code first));
  check_true "a tick's code is past the links" (code (Mc.Sys.Tick 0) >= Mc.Sys.links cfg);
  (* The independence masks a search filters child sleep sets with: link
     [a]'s bit [b] is set exactly when the two deliveries commute. *)
  let masks = Mc.Checker.independence_masks cfg in
  let width = (Mc.Sys.links cfg + 62) / 63 in
  List.iter
    (fun a ->
      let ca = Mc.Sys.code_of_move cfg a in
      List.iter
        (fun b ->
          let cb = Mc.Sys.code_of_move cfg b in
          check_bool
            (Printf.sprintf "mask of %s at %s" (label a) (label b))
            (Mc.Sys.independent cfg ca cb)
            ((masks.((ca * width) + (cb / 63)) lsr (cb mod 63)) land 1 = 1))
        n12_links)
    n12_links;
  (* A code names one move, and every link, pending event and menu item
     has one. *)
  let cfg =
    { cfg with
      Mc.Config.menu =
        [ Mc.Config.Corrupt_server { server = 1; sn = 3; v = 7 };
          Mc.Config.Crash_recover { server = 2 };
          Mc.Config.Corrupt_round { client = 101; round = 4 } ] }
  in
  let menu = List.mapi (fun i _ -> Mc.Sys.Corrupt i) cfg.menu in
  List.iteri
    (fun i mv ->
      let c = Mc.Sys.code_of_move cfg mv in
      check_int ("code of " ^ Mc.Sys.move_to_string mv) i c;
      check_true
        ("decodes " ^ Mc.Sys.move_to_string mv)
        (Mc.Sys.move_equal mv (Mc.Sys.move_of_code cfg c)))
    (List.sort
       (fun a b -> Int.compare (Mc.Sys.code_of_move cfg a) (Mc.Sys.code_of_move cfg b))
       n12_links
    @ menu
    @ List.init 4 (fun i -> Mc.Sys.Tick i));
  List.iter
    (fun mv -> check_int ("no code for " ^ Mc.Sys.move_to_string mv) (-1) (Mc.Sys.code_of_move cfg mv))
    [ Mc.Sys.Deliver { client = 102; server = 0; to_server = true };
      Mc.Sys.Deliver { client = 100; server = 12; to_server = false };
      Mc.Sys.Corrupt 3; Mc.Sys.Tick (-1) ]

(* A cex whose first delivery carries [l]. *)
let with_first_label l j =
  let open Obs.Json in
  let first = ref true in
  let move = function
    | Obj fields when !first && List.mem_assoc "label" fields ->
      first := false;
      Obj
        (List.map
           (fun (k, v) -> if String.equal k "label" then (k, Str l) else (k, v))
           fields)
    | m -> m
  in
  match j with
  | Obj fields ->
    Obj
      (List.map
         (function
           | "trace", List moves -> ("trace", List (List.map move moves))
           | kv -> kv)
         fields)
  | _ -> j

let test_deliver_labels_decode_strictly () =
  let cex = parse_json (Filename.concat examples "mc-regular-stuck.json") in
  List.iter
    (fun (l, expected) ->
      match Mc.Checker.cex_of_json (with_first_label l cex) with
      | Error e -> Alcotest.failf "%s rejected: %s" l e
      | Ok c -> (
        match c.Mc.Checker.trace with
        | mv :: _ ->
          check_true (l ^ " decodes") (Mc.Sys.move_equal mv expected);
          check_true (l ^ " renders back") (String.equal (label mv) l)
        | [] -> Alcotest.fail "empty trace"))
    [
      ("link:c100->s0", Mc.Sys.Deliver { client = 100; server = 0; to_server = true });
      ("link:s11->c101", Mc.Sys.Deliver { client = 101; server = 11; to_server = false });
      ("link:c300->s10", Mc.Sys.Deliver { client = 300; server = 10; to_server = true });
    ];
  List.iter
    (fun l ->
      let names_it = function
        | Ok _ -> false
        | Error e ->
          let needle = Printf.sprintf "%S" l in
          let n = String.length needle in
          let rec scan i =
            i + n <= String.length e
            && (String.equal (String.sub e i n) needle || scan (i + 1))
          in
          scan 0
      in
      let j = with_first_label l cex in
      check_true (l ^ " rejected by the cex decoder, naming it")
        (names_it (Mc.Checker.cex_of_json j));
      check_true (l ^ " rejected by the guide decoder, naming it")
        (names_it (Result.map ignore (Mc.Checker.guide_of_json j))))
    [
      "link:bogus"; "link:c100-s0"; "link:c100->s"; "link:c0100->s3";
      "link:c100->s3 "; "link:c100->c3"; "link:s3->s100"; "c100->s3";
      "link:c-1->s3"; "link:c100->s3->s4"; "link:c1_0->s3"; "";
    ];
  (* A negative menu item or tick index names no move: both decoders
     reject it, naming the field. *)
  List.iter
    (fun (kind, name) ->
      let j =
        let open Obs.Json in
        match cex with
        | Obj fields ->
          Obj
            (List.map
               (function
                 | "trace", List (_ :: rest) ->
                   ("trace", List (Obj [ ("move", Str kind); (name, Int (-1)) ] :: rest))
                 | kv -> kv)
               fields)
        | _ -> cex
      in
      let names_field = function
        | Ok _ -> false
        | Error e ->
          let needle = "." ^ name ^ ": negative" in
          let n = String.length needle in
          let rec scan i =
            i + n <= String.length e
            && (String.equal (String.sub e i n) needle || scan (i + 1))
          in
          scan 0
      in
      check_true (kind ^ " -1 rejected by the cex decoder")
        (names_field (Result.map ignore (Mc.Checker.cex_of_json j)));
      check_true (kind ^ " -1 rejected by the guide decoder")
        (names_field (Result.map ignore (Mc.Checker.guide_of_json j))))
    [ ("corrupt", "item"); ("tick", "index") ]

(* --- stats golden ------------------------------------------------------ *)

(* Every counter of a sequential search, pinned.  The visited set, the
   sleep-set and symmetry reductions and the budgets all feed them, so a
   change to the expansion step that is not a pure refactor moves at
   least one; [replays] stays 0, as a search clones states.  [trace] is
   the violating trace's length, -1 when there is none. *)
let stats_line (o : Mc.Checker.outcome) =
  let s = o.Mc.Checker.stats in
  Printf.sprintf
    "%s exhaustive=%b trace=%d states=%d transitions=%d terminals=%d \
     revisits=%d sleep_skips=%d sym_skips=%d replays=%d off_target=%d \
     fp_collisions=%d peak_visited=%d max_depth_seen=%d truncated=%b"
    (Stab.verdict_kind o.Mc.Checker.verdict)
    o.Mc.Checker.exhaustive
    (match o.Mc.Checker.trace with None -> -1 | Some t -> List.length t)
    s.Mc.Checker.states s.transitions s.terminals s.revisits s.sleep_skips
    s.sym_skips s.replays s.off_target s.fp_collisions s.peak_visited
    s.max_depth_seen s.truncated

let stats_goldens =
  let budgets max_states = { Mc.Checker.max_states; max_depth = 10_000 } in
  [
    (* [n4_silent] is perfbench's mc-n4-silent config at its default
       size. *)
    ( "mc-n4-silent seed 1",
      (fun () -> Mc.Checker.search ~seed:1 n4_silent),
      "clean exhaustive=true trace=-1 states=27475 transitions=27474 \
       terminals=44 revisits=20739 sleep_skips=23528 sym_skips=6011 \
       replays=0 off_target=0 fp_collisions=0 peak_visited=6692 \
       max_depth_seen=25 truncated=false" );
    ( "tiny regular",
      (fun () -> Mc.Checker.search tiny_cfg),
      "clean exhaustive=true trace=-1 states=1805 transitions=1804 \
       terminals=13 revisits=1193 sleep_skips=1139 sym_skips=406 \
       replays=0 off_target=0 fp_collisions=0 peak_visited=599 \
       max_depth_seen=15 truncated=false" );
    ( "tiny atomic",
      (fun () ->
        Mc.Checker.search { tiny_cfg with Mc.Config.family = Mc.Config.Atomic }),
      "clean exhaustive=true trace=-1 states=3540 transitions=3539 \
       terminals=13 revisits=2383 sleep_skips=2150 sym_skips=796 \
       replays=0 off_target=0 fp_collisions=0 peak_visited=1144 \
       max_depth_seen=21 truncated=false" );
    ( "tiny regular, no reduction",
      (fun () -> Mc.Checker.search ~reduction:Mc.Checker.No_reduction tiny_cfg),
      "clean exhaustive=true trace=-1 states=2233 transitions=2232 \
       terminals=13 revisits=1619 sleep_skips=0 sym_skips=0 replays=0 \
       off_target=0 fp_collisions=0 peak_visited=601 max_depth_seen=15 \
       truncated=false" );
    ( "tiny regular, no visited set, truncated",
      (fun () ->
        Mc.Checker.search ~use_visited:false ~budgets:(budgets 500) tiny_cfg),
      "clean exhaustive=false trace=-1 states=500 transitions=500 \
       terminals=95 revisits=0 sleep_skips=147 sym_skips=185 replays=0 \
       off_target=0 fp_collisions=0 peak_visited=0 max_depth_seen=15 \
       truncated=true" );
    ( "over-bound early stop",
      (fun () -> Mc.Checker.search overbound_cfg),
      "stuck exhaustive=false trace=32 states=33 transitions=32 terminals=1 \
       revisits=0 sleep_skips=0 sym_skips=274 replays=0 off_target=0 \
       fp_collisions=0 peak_visited=32 max_depth_seen=32 truncated=false" );
    (* Two-digit server ids, where label order is not numeric order:
       [mc --family regular --servers 12 -t 1 --byz 1 --max-states
       3000]. *)
    ( "n12 budgeted",
      (fun () ->
        Mc.Checker.search ~budgets:(budgets 3_000)
          { n4_silent with Mc.Config.n = 12; read_budget = 8 }),
      "clean exhaustive=false trace=-1 states=3000 transitions=3000 \
       terminals=3 revisits=2079 sleep_skips=726 sym_skips=8257 \
       replays=0 off_target=0 fp_collisions=0 peak_visited=918 \
       max_depth_seen=58 truncated=true" );
    ( "over-bound inversion hunt",
      (fun () ->
        Mc.Checker.search ~budgets:(budgets 2_000) ~target:"inversion"
          overbound_cfg),
      "clean exhaustive=false trace=-1 states=2000 transitions=2000 \
       terminals=2 revisits=1446 sleep_skips=1712 sym_skips=3283 \
       replays=0 off_target=2 fp_collisions=0 peak_visited=552 \
       max_depth_seen=32 truncated=true" );
  ]

let test_stats_golden (search, expected) () =
  Alcotest.(check string) "stats" expected (stats_line (search ()))

(* The flight recorder of one sequential search, under a frozen clock so
   the timeline is byte-stable (one sample a line below; the rendering
   has no newlines). *)
let profile_golden =
  {|{"schema":"stabreg/mc-profile/v1","kind":"mc","every":600,"samples":[
{"tick":1,"elapsed_s":0.0,"states":1,"transitions":0,"depth":0,"max_depth":0,"visited":0,"revisits":0,"sleep_skips":0,"sym_skips":0,"fp_collisions":0,"replays":0,"terminals":0},
{"tick":601,"elapsed_s":0.0,"states":601,"transitions":600,"depth":7,"max_depth":15,"visited":232,"revisits":358,"sleep_skips":279,"sym_skips":182,"fp_collisions":0,"replays":0,"terminals":10},
{"tick":1201,"elapsed_s":0.0,"states":1201,"transitions":1200,"depth":8,"max_depth":15,"visited":420,"revisits":768,"sleep_skips":676,"sym_skips":259,"fp_collisions":0,"replays":0,"terminals":12},
{"tick":1801,"elapsed_s":0.0,"states":1801,"transitions":1800,"depth":3,"max_depth":15,"visited":599,"revisits":1188,"sleep_skips":1129,"sym_skips":404,"fp_collisions":0,"replays":0,"terminals":13},
{"tick":1805,"elapsed_s":0.0,"states":1805,"transitions":1804,"depth":15,"max_depth":15,"visited":599,"revisits":1193,"sleep_skips":1139,"sym_skips":406,"fp_collisions":0,"replays":0,"terminals":13}],
"sections":{}}|}

let test_profile_golden () =
  let r = Obs.Profile.create ~every:600 ~clock:(fun () -> 0.) ~kind:"mc" () in
  ignore (Mc.Checker.search ~recorder:r tiny_cfg);
  Alcotest.(check string)
    "profile"
    (String.concat "" (String.split_on_char '\n' profile_golden))
    (Obs.Json.to_string (Obs.Profile.to_json r))

(* Two-word residual sleep sets: n = 20 has 80 links, so every sleep
   set naming a link of the reader's to server 12 or above reaches the
   second word.  [mc --family regular --servers 20 -t 1 --byz 1
   --read-budget 8 --max-states 3000]. *)
let n20_golden =
  ( "n20 budgeted, two-word residuals",
    (fun () ->
      Mc.Checker.search
        ~budgets:{ Mc.Checker.max_states = 3_000; max_depth = 10_000 }
        { n4_silent with Mc.Config.n = 20; read_budget = 8 }),
    "clean exhaustive=false trace=-1 states=3000 transitions=3000 \
     terminals=3 revisits=2052 sleep_skips=561 sym_skips=11907 \
     replays=0 off_target=0 fp_collisions=0 peak_visited=945 \
     max_depth_seen=98 truncated=true" )

(* Every state a full search reaches — every enabled move from every
   state, no reduction, expanding each fingerprint once, up to [budget]
   arrivals: merged arrivals included, with the key taken on the warm
   state the walk left, after [check] has seen it. *)
let reached_states ?(check = ignore) cfg ~budget =
  let expanded = Hashtbl.create 1024 and arrivals = ref [] and count = ref 0 in
  let rec go sys =
    if !count < budget then begin
      incr count;
      check sys;
      let key = search_key sys and fp = Mc.Sys.fingerprint sys in
      arrivals := (key, fp) :: !arrivals;
      if not (Hashtbl.mem expanded fp) then begin
        Hashtbl.add expanded fp ();
        List.iter
          (fun c ->
            let child = Mc.Sys.clone sys in
            check_true "search move applies" (Mc.Sys.apply child c);
            go child)
          (enabled sys)
      end
    end
  in
  go (Mc.Sys.create cfg);
  !arrivals

(* Two arrivals have equal keys iff they have equal fingerprints. *)
let check_key_partition name arrivals =
  let by_key = Hashtbl.create 1024 and by_fp = Hashtbl.create 1024 in
  List.iter
    (fun (key, fp) ->
      (match Hashtbl.find_opt by_key key with
      | Some fp' -> check_true (name ^ ": one fingerprint per key") (String.equal fp fp')
      | None -> Hashtbl.add by_key key fp);
      match Hashtbl.find_opt by_fp fp with
      | Some key' -> check_true (name ^ ": one key per fingerprint") (key = key')
      | None -> Hashtbl.add by_fp fp key)
    arrivals;
  check_true (name ^ ": some states merged")
    (Hashtbl.length by_fp < List.length arrivals);
  check_int (name ^ ": as many keys as fingerprints") (Hashtbl.length by_fp)
    (Hashtbl.length by_key)

(* The key stands in for the digest in the visited set: two reached
   states have equal keys iff they have equal fingerprints. *)
let test_key_agrees_with_fingerprint () =
  List.iter
    (fun (name, cfg, budget) -> check_key_partition name (reached_states cfg ~budget))
    [
      ("tiny regular", tiny_cfg, max_int);
      ("tiny atomic", { tiny_cfg with Mc.Config.family = Mc.Config.Atomic }, max_int);
      ("budgeted mwmr", clone_cfgs.(2), 20_000);
      ("budgeted n4 silent", n4_silent, 20_000);
    ]

(* What a search key tells the checker: the key, and the representative
   and renaming maps on every server slot. *)
let key_view sys =
  let k1, k2, ren, rep = keyed sys in
  let n = (Mc.Sys.config sys).Mc.Config.n in
  (k1, k2, Array.init n rep, Array.init n ren)

(* A state keyed after every step rehashes only the sections the last
   move marked stale; its key must equal that of a never-keyed replay of
   its moves.  Halfway, the walk goes on in a clone, and the state it
   left must still key as its own replay once the clone has walked
   away. *)
let prop_warm_key_is_cold =
  QCheck.Test.make ~count:60 ~name:"a warm search key equals a cold one"
    QCheck.(triple (int_range 0 2) (int_range 1 100_000) (int_range 0 60))
    (fun (family, seed, steps) ->
      let cfg = clone_cfgs.(family) in
      let st = Random.State.make [| seed |] in
      let cold fired = key_view (replay cfg (List.rev fired)) in
      let rec walk sys k fired =
        key_view sys = cold fired
        &&
        match enabled sys with
        | [] -> true
        | _ when k = steps -> true
        | moves ->
          let moves = Array.of_list moves in
          let mv = moves.(Random.State.int st (Array.length moves)) in
          let next = if k = steps / 2 then Mc.Sys.clone sys else sys in
          check_true "walk move applies" (Mc.Sys.apply next mv);
          walk next (k + 1) (mv :: fired)
          && (next == sys || key_view sys = cold fired)
      in
      walk (Mc.Sys.create cfg) 0 [])

(* The bijection again, over configs whose menus name slots, order the
   mailboxes (round corruption) and keep a colluding server; and the
   key's representative map is the fingerprint's on every state. *)
let test_key_agrees_under_every_menu () =
  Array.iteri
    (fun i cfg ->
      let name = Printf.sprintf "clone config %d" i in
      let n = cfg.Mc.Config.n in
      let same_rep sys =
        let _, _, _, rep = keyed sys and _, _, rep' = Mc.Sys.fingerprint_ex sys in
        check_true (name ^ ": one representative map") (List.init n rep = List.init n rep')
      in
      check_key_partition name (reached_states ~check:same_rep cfg ~budget:8_000))
    clone_cfgs

(* [Sys.enabled_codes] writes its codes already sorted: decoded, they
   are strictly increasing under [compare_move], also
   where server ids pass one digit (n = 12, n = 20).  [Sys.terminal]
   holds exactly where it writes no code. *)
let test_enabled_is_sorted () =
  let sorted sys =
    let moves = List.map (Mc.Sys.move_of_code (Mc.Sys.config sys)) (enabled sys) in
    let rec go = function
      | a :: (b :: _ as rest) -> Mc.Sys.compare_move a b < 0 && go rest
      | [] | [ _ ] -> true
    in
    check_true "codes in compare_move order" (go moves);
    check_true "terminal iff no move is enabled"
      (Bool.equal (Mc.Sys.terminal sys) (moves = []))
  in
  List.iter
    (fun (cfg, budget) -> ignore (reached_states ~check:sorted cfg ~budget))
    ([ (tiny_cfg, max_int);
       ({ n4_silent with Mc.Config.n = 12 }, 2_000);
       ({ n4_silent with Mc.Config.n = 20; read_budget = 8 }, 1_000) ]
    @ List.map (fun cfg -> (cfg, 2_000)) (Array.to_list clone_cfgs))

(* --- clones that share sections with their original --------------------- *)

(* Everything the checker reads off a state, each as a cold replay of the
   same moves reads it. *)
let cold_view sys =
  ( key_view sys,
    Mc.Sys.fingerprint sys,
    enabled sys,
    Oracles.History.ops (Mc.Sys.history sys) )

(* Walk [sys] [steps] moves, keying it after each one as a search does;
   the moves fired. *)
let keyed_walk st sys steps =
  let rec go k acc =
    ignore (search_key sys);
    match enabled sys with
    | [] -> List.rev acc
    | _ when k = 0 -> List.rev acc
    | moves ->
      let moves = Array.of_list moves in
      let mv = moves.(Random.State.int st (Array.length moves)) in
      check_true "walk move applies" (Mc.Sys.apply sys mv);
      go (k - 1) (mv :: acc)
  in
  go steps []

(* The sequential search's last child: a node is cloned for its earlier
   children, then walked on itself.  The clone, left alone, must still
   read as a cold replay of its own moves once its original has walked
   away, whether or not the original was keyed before the clone. *)
let prop_clone_survives_its_original =
  QCheck.Test.make ~count:60 ~name:"a clone survives its original walking on"
    QCheck.(
      quad (int_range 0 2) (int_range 1 100_000) (int_range 0 40)
        (int_range 1 30))
    (fun (family, seed, prefix, steps) ->
      let cfg = clone_cfgs.(family) in
      let st = Random.State.make [| seed |] in
      let sys = Mc.Sys.create cfg in
      let fired = random_walk st sys prefix in
      if seed mod 2 = 0 then ignore (search_key sys);
      let copy = Mc.Sys.clone sys in
      let walked = keyed_walk st sys steps in
      cold_view copy = cold_view (replay cfg fired)
      && cold_view sys = cold_view (replay cfg (fired @ walked)))

(* The frontier's frozen parent: two children cloned off one keyed state
   that is never walked itself, walked one after the other in either
   order.  Each child, and the parent, reads as its own cold replay.  The
   last config has more servers than a state has sharing bits, so its
   high slots share one. *)
let test_sibling_clones_of_a_frozen_state () =
  let wide = { n4_silent with Mc.Config.n = 64; f = 0; byz = [ (60, Mc.Config.Silent) ] } in
  Array.iteri
    (fun family cfg ->
      for seed = 1 to 8 do
        List.iter
          (fun a_first ->
            let st = Random.State.make [| seed; family |] in
            let sys = Mc.Sys.create cfg in
            let fired = random_walk st sys (3 * seed) in
            ignore (search_key sys);
            let frozen = Mc.Sys.clone sys in
            let a = Mc.Sys.clone frozen and b = Mc.Sys.clone frozen in
            let walk c = keyed_walk st c (4 + seed) in
            let wa, wb =
              if a_first then
                let wa = walk a in
                (wa, walk b)
              else
                let wb = walk b in
                (walk a, wb)
            in
            check_true "first child reads as its replay"
              (cold_view a = cold_view (replay cfg (fired @ wa)));
            check_true "second child reads as its replay"
              (cold_view b = cold_view (replay cfg (fired @ wb)));
            check_true "the frozen parent reads as its replay"
              (cold_view frozen = cold_view (replay cfg fired)))
          [ true; false ]
      done)
    (Array.append clone_cfgs [| wide |])

(* --- what an expansion allocates ------------------------------------------ *)

(* The seeded n4-silent search is the benchmark's mc workload.  Its
   minor-heap allocation is deterministic for a build, so a section copy
   or a per-node buffer that comes back into [clone] or [expand] shows
   here without a timing run.  The bound is the measured 226.9 words per
   expansion plus 10%. *)
let test_expansion_allocation () =
  let words_per_expansion = 249.6 in
  ignore (Mc.Checker.search ~seed:1 n4_silent);
  let before = Gc.minor_words () in
  let o = Mc.Checker.search ~seed:1 n4_silent in
  let words = Gc.minor_words () -. before in
  let states = o.Mc.Checker.stats.Mc.Checker.states in
  check_int "expansions" 27_475 states;
  let per = words /. float_of_int states in
  if per > words_per_expansion then
    Alcotest.failf "%.1f minor words per expansion (%.0f per search), above %.1f" per words
      words_per_expansion

(* The benchmark times [Sys.create] as the mc workload's set-up.  Work
   moved into it (a table built per deployment, say) shows here first:
   the bound is the measured 465 minor words plus 10%. *)
let test_create_allocation () =
  let words_per_create = 511.5 in
  ignore (Mc.Sys.create n4_silent);
  let runs = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (Mc.Sys.create n4_silent))
  done;
  let per = (Gc.minor_words () -. before) /. float_of_int runs in
  if per > words_per_create then
    Alcotest.failf "%.1f minor words per Sys.create, above %.1f" per words_per_create

let tests =
  List.map
    (fun w -> case ("golden fingerprint: " ^ w.w_name) (test_golden_fingerprint w))
    golden_walks
  @ [
    case "golden walks reach tied servers" test_golden_walks_cover_ties;
    case "tiny config verified exhaustively" test_tiny_exhaustive_clean;
    case "reduction soundness cross-check" test_reduction_soundness_cross_check;
    case "seeded order is sound and deterministic"
      test_order_seed_deterministic;
    case "over-bound config: stuck found, shrunk, replayed"
      test_overbound_stuck_found_and_replayable;
    case "target filter skips other kinds" test_target_filter_skips_other_kinds;
    case "cex JSON round trip" test_cex_json_round_trip;
    case "committed stuck artifact replays"
      (replay_committed "mc-regular-stuck.json");
    case "committed inversion artifact replays"
      (replay_committed "mc-regular-inversion.json");
    case "guided witness finds the inversion"
      test_guided_witness_finds_inversion;
    case "sequential profile golden" test_profile_golden;
    case "n = 12 moves match their labels" test_n12_moves_match_labels;
    case "deliver labels decode strictly" test_deliver_labels_decode_strictly;
  ]
  @ List.map
      (fun (name, search, expected) ->
        case ("stats golden: " ^ name) (test_stats_golden (search, expected)))
      stats_goldens
  @ [
      qcheck prop_clone_isolation;
      case "a terminal state refuses a corruption" test_terminal_refuses_corruption;
      qcheck prop_warm_fingerprint_is_cold;
      (let name, search, expected = n20_golden in
       case ("stats golden: " ^ name) (test_stats_golden (search, expected)));
      case "a search key agrees with the fingerprint" test_key_agrees_with_fingerprint;
      qcheck prop_warm_key_is_cold;
      case "a search key agrees with the fingerprint under every menu"
        test_key_agrees_under_every_menu;
      case "enabled deliveries are sorted" test_enabled_is_sorted;
      case "open finding: Fig. 3 writer-sn cex pinned" test_writer_sn_cex_pinned;
      qcheck prop_clone_survives_its_original;
      case "sibling clones of a frozen state" test_sibling_clones_of_a_frozen_state;
      case "an expansion allocates what its move changed" test_expansion_allocation;
      case "a deployment's set-up allocates a fixed amount" test_create_allocation;
      case "moves outside the deployment are skipped or refused"
        test_moves_outside_the_deployment;
    ]
