open Util

(* --- Parallel.Pool ---------------------------------------------------- *)

let test_map_order () =
  let xs = List.init 23 Fun.id in
  let squares = Parallel.Pool.map ~domains:4 (fun x -> x * x) xs in
  check_true "order and values preserved"
    (squares = List.map (fun x -> x * x) xs)

let test_map_single_domain () =
  let xs = [ 3; 1; 4; 1; 5 ] in
  check_true "domains=1 is plain map"
    (Parallel.Pool.map ~domains:1 string_of_int xs
    = List.map string_of_int xs)

let test_map_empty () =
  check_true "empty input" (Parallel.Pool.map ~domains:4 Fun.id [] = [])

let test_map_more_domains_than_items () =
  check_true "domains > items"
    (Parallel.Pool.map ~domains:8 succ [ 1; 2 ] = [ 2; 3 ])

let test_map_invalid_domains () =
  match Parallel.Pool.map ~domains:0 Fun.id [ 1 ] with
  | _ -> Alcotest.fail "domains=0 accepted"
  | exception Invalid_argument _ -> ()

let test_failure_lowest_index () =
  (* Items 3 and 7 both raise; the reported failure must be item 3 —
     the lowest index — regardless of which domain hit its error
     first. *)
  match
    Parallel.Pool.map ~domains:4
      (fun x -> if x = 3 || x = 7 then failwith "boom" else x)
      (List.init 10 Fun.id)
  with
  | _ -> Alcotest.fail "expected Worker_failure"
  | exception Parallel.Pool.Worker_failure (i, Failure _) ->
    check_int "lowest failing index" 3 i
  | exception e -> raise e

let test_item_zero_on_caller_domain () =
  let self = Domain.self () in
  let homes =
    Parallel.Pool.map ~domains:4 (fun _ -> Domain.self ()) [ 0; 1; 2; 3 ]
  in
  check_true "item 0 runs on the calling domain"
    (match homes with d :: _ -> d = self | [] -> false)

(* --- Parallel.Pool.map_checked (the deterministic race harness) ------- *)

let test_map_checked_clean_is_map () =
  let xs = List.init 17 Fun.id in
  check_true "clean map_checked is map"
    (Parallel.Pool.map_checked ~domains:4 (fun x -> x * x) xs
    = Parallel.Pool.map ~domains:4 (fun x -> x * x) xs)

let test_map_checked_single_domain () =
  Alcotest.(check (list int))
    "domains=1 still double-runs and agrees" [ 2; 3; 4 ]
    (Parallel.Pool.map_checked ~domains:1 succ [ 1; 2; 3 ])

let test_map_checked_catches_shared_state () =
  (* A worker reading a shared counter depends on execution order: the
     inverted second pass must expose it, lowest index first. *)
  let c = Atomic.make 0 in
  match
    Parallel.Pool.map_checked ~domains:1
      (fun _ -> Atomic.fetch_and_add c 1)
      [ 10; 20; 30 ]
  with
  | _ -> Alcotest.fail "order-dependent worker accepted"
  | exception Parallel.Pool.Nondeterministic i ->
    check_int "lowest differing index" 0 i

let test_map_checked_recheck_suppresses_side_effects () =
  (* First pass logs into a caller-local buffer; the recheck recomputes
     the value without re-logging — and must still be compared. *)
  let log = Buffer.create 32 in
  let f x =
    Buffer.add_string log (string_of_int x);
    x * 3
  in
  let r =
    Parallel.Pool.map_checked ~domains:1 ~recheck:(fun x -> x * 3) f [ 1; 2 ]
  in
  Alcotest.(check (list int)) "first-pass results returned" [ 3; 6 ] r;
  Alcotest.(check string) "side effects ran once" "12" (Buffer.contents log)

let test_map_checked_recheck_mismatch () =
  match
    Parallel.Pool.map_checked ~domains:2 ~recheck:(fun x -> x + 1) Fun.id
      [ 0; 1; 2 ]
  with
  | _ -> Alcotest.fail "diverging recheck accepted"
  | exception Parallel.Pool.Nondeterministic i ->
    check_int "lowest differing index" 0 i

let test_map_checked_second_pass_failure () =
  let seen = Atomic.make 0 in
  let f x =
    (* first visit of item 1 succeeds, the re-run raises *)
    if x = 1 && Atomic.fetch_and_add seen 1 > 0 then failwith "flaky" else x
  in
  match Parallel.Pool.map_checked ~domains:1 f [ 0; 1; 2 ] with
  | _ -> Alcotest.fail "second-pass failure accepted"
  | exception Parallel.Pool.Nondeterministic i ->
    check_int "failing item reported" 1 i

let test_map_checked_first_pass_failure_wins () =
  (* A first-pass failure is a plain Worker_failure, exactly as map. *)
  match
    Parallel.Pool.map_checked ~domains:4
      (fun x -> if x = 3 || x = 7 then failwith "boom" else x)
      (List.init 10 Fun.id)
  with
  | _ -> Alcotest.fail "expected Worker_failure"
  | exception Parallel.Pool.Worker_failure (i, Failure _) ->
    check_int "lowest failing index" 3 i
  | exception e -> raise e

let test_map_checked_item_zero_on_caller_both_passes () =
  let self = Domain.self () in
  let homes =
    Parallel.Pool.map_checked ~domains:4
      (fun i -> if i = 0 then Domain.self () = self else true)
      [ 0; 1; 2; 3 ]
  in
  check_true "item 0 on the calling domain in both passes"
    (List.for_all Fun.id homes)

(* --- Parallel.Pool.Deque ---------------------------------------------- *)

let test_deque_pop_newest_steal_oldest () =
  let d = Parallel.Pool.Deque.create () in
  List.iter (fun x -> Parallel.Pool.Deque.push d x) [ 1; 2; 3; 4 ];
  check_int "length" 4 (Parallel.Pool.Deque.length d);
  let opt_int = Alcotest.(check (option int)) in
  opt_int "pop is LIFO" (Some 4) (Parallel.Pool.Deque.pop d);
  opt_int "steal is FIFO" (Some 1) (Parallel.Pool.Deque.steal d);
  opt_int "steal again" (Some 2) (Parallel.Pool.Deque.steal d);
  opt_int "pop the rest" (Some 3) (Parallel.Pool.Deque.pop d);
  opt_int "empty pop" None (Parallel.Pool.Deque.pop d);
  opt_int "empty steal" None (Parallel.Pool.Deque.steal d)

let test_deque_grows () =
  let d = Parallel.Pool.Deque.create () in
  let n = 1000 in
  for i = 1 to n do
    Parallel.Pool.Deque.push d i
  done;
  check_int "all retained" n (Parallel.Pool.Deque.length d);
  (* drain alternating ends: pops walk down from n, steals up from 1 *)
  let rec drain lo hi acc =
    if lo > hi then List.rev acc
    else
      match
        (Parallel.Pool.Deque.steal d, Parallel.Pool.Deque.pop d)
      with
      | Some s, Some p -> drain (lo + 1) (hi - 1) ((s, p) :: acc)
      | Some s, None when lo = hi -> drain (lo + 1) (hi - 1) ((s, s) :: acc)
      | _ -> Alcotest.fail "deque drained early"
  in
  let pairs = drain 1 n [] in
  check_true "ends meet in order"
    (List.for_all2
       (fun (s, p) i -> s = i && p = n - i + 1)
       (List.filteri (fun i _ -> i < n / 2) pairs)
       (List.init (n / 2) (fun i -> i + 1)))

(* --- Parallel.Pool.Visited (the packed visited set) --------------------- *)

(* Hand-crafted keys: [key] is the first word (it picks the shard and
   the home slot), [tail] the second; keys sharing [key] but not [tail]
   are the collisions the table counts. *)
let arrive m ~key ~tail bits =
  let outside = Array.make (Array.length bits) 0 in
  if Parallel.Pool.Visited.arrive m ~k1:key ~k2:tail bits ~outside then Some outside else None
let find m ~key ~tail = Parallel.Pool.Visited.find m ~k1:key ~k2:tail
let bits_equal = Option.equal (Array.for_all2 Int.equal)

(* The table against a Hashtbl model of [arrive]: absent, insert the
   bits; resident, report the bits outside the arrival's and keep the
   ones inside. *)
let test_visited_agrees_with_hashtbl_oracle () =
  let rng = Random.State.make [| 2025 |] in
  (* a stream with repeats and forced same-first-word collisions,
     replayed identically against every shard count and the model *)
  let stream =
    List.init 2_000 (fun _ ->
        let key = Random.State.int rng 150 in
        let tail =
          if Random.State.bool rng then 0 else Random.State.int rng 3
        in
        (key, tail, [| Random.State.bits rng lor (Random.State.bits rng lsl 30) |]))
  in
  List.iter
    (fun shards ->
      let oracle = Hashtbl.create 64 in
      let m = Parallel.Pool.Visited.create ~shards ~width:1 () in
      List.iteri
        (fun i (key, tail, bits) ->
          let expected =
            match Hashtbl.find_opt oracle (key, tail) with
            | None ->
              Hashtbl.replace oracle (key, tail) bits;
              None
            | Some r ->
              Hashtbl.replace oracle (key, tail) [| r.(0) land bits.(0) |];
              Some [| r.(0) land lnot bits.(0) |]
          in
          check_true
            (Printf.sprintf "S=%d op %d arrival agrees" shards i)
            (bits_equal (arrive m ~key ~tail bits) expected))
        stream;
      check_int
        (Printf.sprintf "S=%d cardinality" shards)
        (Hashtbl.length oracle)
        (Parallel.Pool.Visited.length m);
      Hashtbl.iter
        (fun (key, tail) bits ->
          check_true
            (Printf.sprintf "S=%d member %d/%d" shards key tail)
            (bits_equal (find m ~key ~tail) (Some bits)))
        oracle;
      check_true
        (Printf.sprintf "S=%d absent key" shards)
        (Option.is_none (find m ~key:9_999 ~tail:0));
      check_true
        (Printf.sprintf "S=%d collisions counted" shards)
        (Parallel.Pool.Visited.collisions m > 0))
    [ 1; 2; 4; 8 ]

let test_visited_collision_fixture () =
  (* two keys with the same first word must stay distinct entries — the
     second word, not the first alone, decides *)
  let m = Parallel.Pool.Visited.create ~shards:4 ~width:1 () in
  ignore (arrive m ~key:77 ~tail:1 [| 0b01 |]);
  ignore (arrive m ~key:77 ~tail:2 [| 0b10 |]);
  check_int "both kept" 2 (Parallel.Pool.Visited.length m);
  check_true "a intact" (bits_equal (find m ~key:77 ~tail:1) (Some [| 0b01 |]));
  check_true "b intact" (bits_equal (find m ~key:77 ~tail:2) (Some [| 0b10 |]));
  check_int "collision recorded" 1 (Parallel.Pool.Visited.collisions m);
  (* no-collision control: distinct first words, silent counter *)
  let m2 = Parallel.Pool.Visited.create ~shards:4 ~width:1 () in
  ignore (arrive m2 ~key:1 ~tail:0 [| 1 |]);
  ignore (arrive m2 ~key:2 ~tail:0 [| 1 |]);
  check_int "distinct keys do not count" 0 (Parallel.Pool.Visited.collisions m2)

let test_visited_concurrent_arrivals () =
  (* 4 domains hammer overlapping key ranges; the final table must hold
     exactly the union, sharded consistently *)
  let m = Parallel.Pool.Visited.create ~shards:8 ~width:1 () in
  ignore
    (Parallel.Pool.scatter ~domains:4 (fun w ->
         for i = 0 to 499 do
           ignore (arrive m ~key:((i + (w * 250)) mod 800) ~tail:0 [| 1 lsl w |])
         done));
  check_int "exactly the union of the ranges" 800
    (Parallel.Pool.Visited.length m)

(* Far more keys than a shard's initial 1024 slots, spread over home
   slots, every tenth sharing its first word with its predecessor: each
   doubling re-places every resident with its bits. *)
let test_visited_grows () =
  let m = Parallel.Pool.Visited.create ~shards:1 ~width:1 () in
  let key i = (i / 10 * 10) + (if i mod 10 = 1 then 0 else i mod 10) in
  let spread i = key i * 0x9E3779B97F4A7C1 in
  for i = 0 to 19_999 do
    check_true "fresh key" (Option.is_none (arrive m ~key:(spread i) ~tail:i [| i |]))
  done;
  check_int "every key kept" 20_000 (Parallel.Pool.Visited.length m);
  check_int "shared first words counted" 2_000 (Parallel.Pool.Visited.collisions m);
  check_true "every key finds its bits"
    (List.for_all
       (fun i -> bits_equal (find m ~key:(spread i) ~tail:i) (Some [| i |]))
       (List.init 20_000 Fun.id))

(* A deployment with more than 63 links keeps its residual sleep sets in
   two words: n = 20 with two clients has 80 links, the last 17 of them
   in the second word. *)
let test_visited_multi_word_residual () =
  let cfg = { (Mc.Config.default ~family:Mc.Config.Regular) with Mc.Config.n = 20 } in
  let links = Mc.Sys.links cfg in
  check_int "links" 80 links;
  let width = (links + 62) / 63 in
  check_int "two words" 2 width;
  let last = Mc.Sys.Deliver { client = 101; server = 19; to_server = false } in
  let first = Mc.Sys.Deliver { client = 100; server = 0; to_server = true } in
  let i_last = Mc.Sys.code_of_move cfg last in
  check_int "the last link's slot" 79 i_last;
  check_int "the first link's slot" 0 (Mc.Sys.code_of_move cfg first);
  let m = Parallel.Pool.Visited.create ~shards:1 ~width () in
  let both = [| 1; 1 lsl (i_last - 63) |] in
  check_true "first arrival" (Option.is_none (arrive m ~key:3 ~tail:4 both));
  check_true "a revisit asleep on the first link still needs the last"
    (bits_equal (arrive m ~key:3 ~tail:4 [| 1; 0 |]) (Some [| 0; 1 lsl 16 |]));
  check_true "the residual keeps the first link only"
    (bits_equal (find m ~key:3 ~tail:4) (Some [| 1; 0 |]));
  Alcotest.check_raises "a one-word bitset is refused"
    (Invalid_argument "Parallel.Pool.Visited: bitset of the wrong width") (fun () ->
      ignore (arrive m ~key:3 ~tail:4 [| 1 |]))

(* --- search_parallel ≡ search ---------------------------------------- *)

let mc_cfg ?(n = 3) ?(f = 0) ?(byz = []) ?(writes = 1) ?(reads = 1)
    ?(read_budget = 2) () =
  {
    Mc.Config.family = Mc.Config.Regular;
    n;
    f;
    byz;
    writes;
    reads;
    read_budget;
    menu = [];
    oracle = Mc.Config.Family_default;
  }

let trace_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    List.length a = List.length b && List.for_all2 Mc.Sys.move_equal a b
  | _ -> false

(* The cooperative frontier search reports exhaustive-clean passes
   directly (order-agnostic) and re-derives every other outcome through
   the canonical sequential search, so for every config — clean or
   violating — the parallel verdict, exhaustiveness and trace must be
   bit-identical to the sequential ones at every domain count.  The grid
   covers a clean exhaustive config, a symmetric 2-server one, an
   atomic-oracle one, and a budget-truncated Byzantine config whose
   sequential search finds a violation. *)
let test_parallel_agrees_with_sequential () =
  let grid =
    [
      ("reg-n2", mc_cfg ~n:2 (), None);
      ("reg-n3", mc_cfg (), None);
      ( "atomic-n3",
        { (mc_cfg ()) with Mc.Config.family = Mc.Config.Atomic },
        None );
      ( "reg-n9-2silent",
        mc_cfg ~n:9 ~f:1
          ~byz:[ (0, Mc.Config.Silent); (1, Mc.Config.Silent) ]
          ~read_budget:8 (),
        Some { Mc.Checker.max_states = 20_000; max_depth = 10_000 } );
    ]
  in
  List.iter
    (fun (name, cfg, budgets) ->
      let s = Mc.Checker.search ?budgets cfg in
      List.iter
        (fun domains ->
          let p = Mc.Checker.search_parallel ?budgets ~domains cfg in
          let tag =
            Printf.sprintf "%s @%d domain(s)" name domains
          in
          check_true (tag ^ ": verdicts equal")
            (Stab.verdict_equal s.Mc.Checker.verdict
               p.Mc.Checker.verdict);
          check_true (tag ^ ": traces equal")
            (trace_equal s.Mc.Checker.trace p.Mc.Checker.trace);
          check_true (tag ^ ": exhaustiveness equal")
            (Bool.equal s.Mc.Checker.exhaustive p.Mc.Checker.exhaustive);
          (* the visited set holds distinct states only, never more than
             the expansions that populated it *)
          check_true (tag ^ ": unique <= expanded")
            (p.Mc.Checker.stats.Mc.Checker.peak_visited
             <= p.Mc.Checker.stats.Mc.Checker.states
            && p.Mc.Checker.stats.Mc.Checker.peak_visited > 0))
        [ 1; 2; 4 ])
    grid

let test_parallel_reproducible () =
  let cfg = mc_cfg () in
  (* the reported projection — verdict, trace, exhaustiveness — is
     scheduling-independent; per-worker counters are not, so only
     domains=1 (the plain sequential searcher) pins exact stats *)
  let p1 = Mc.Checker.search_parallel ~domains:4 cfg in
  let p2 = Mc.Checker.search_parallel ~domains:4 cfg in
  check_true "verdict reproducible"
    (Stab.verdict_equal p1.Mc.Checker.verdict p2.Mc.Checker.verdict);
  check_true "trace reproducible"
    (trace_equal p1.Mc.Checker.trace p2.Mc.Checker.trace);
  check_true "exhaustiveness reproducible"
    (Bool.equal p1.Mc.Checker.exhaustive p2.Mc.Checker.exhaustive);
  let s1 = Mc.Checker.search_parallel ~domains:1 cfg in
  let s2 = Mc.Checker.search_parallel ~domains:1 cfg in
  check_int "domains=1 states exactly reproducible"
    s1.Mc.Checker.stats.Mc.Checker.states
    s2.Mc.Checker.stats.Mc.Checker.states

(* On a violating config, the counterexample the whole [check] pipeline
   ships (shrunk, digest-stamped) must not depend on the domain count:
   the committed examples/mc artifacts stay replayable under any
   --domains value. *)
let test_check_digest_independent_of_domains () =
  let cfg =
    mc_cfg ~n:9 ~f:1
      ~byz:[ (0, Mc.Config.Silent); (1, Mc.Config.Silent) ]
      ~read_budget:8 ()
  in
  let budgets = { Mc.Checker.max_states = 20_000; max_depth = 10_000 } in
  let r1 = Mc.Checker.check ~budgets cfg in
  let r2 = Mc.Checker.check ~budgets ~domains:2 cfg in
  let r4 = Mc.Checker.check ~budgets ~domains:4 cfg in
  match (r1.Mc.Checker.cex, r2.Mc.Checker.cex, r4.Mc.Checker.cex) with
  | Some a, Some b, Some c ->
    let agree tag (x : Mc.Checker.cex) (y : Mc.Checker.cex) =
      check_true (tag ^ ": digests equal")
        (String.equal x.Mc.Checker.digest y.Mc.Checker.digest);
      check_true (tag ^ ": traces equal")
        (List.length x.Mc.Checker.trace = List.length y.Mc.Checker.trace
        && List.for_all2 Mc.Sys.move_equal x.Mc.Checker.trace
             y.Mc.Checker.trace)
    in
    agree "domains 1 vs 2" a b;
    agree "domains 1 vs 4" a c
  | _ -> Alcotest.fail "expected a counterexample from all three runs"

(* The race-checked search must agree with the plain one bit for bit:
   the second inverted-steal pass is pure diagnostics.  Only domains=1
   (two identical sequential runs) pins exact per-counter stats. *)
let test_race_check_agrees () =
  List.iter
    (fun domains ->
      let cfg = mc_cfg () in
      let p = Mc.Checker.search_parallel ~domains cfg in
      let r = Mc.Checker.search_parallel ~domains ~race_check:true cfg in
      check_true "verdicts equal"
        (Stab.verdict_equal p.Mc.Checker.verdict r.Mc.Checker.verdict);
      check_true "traces equal"
        (trace_equal p.Mc.Checker.trace r.Mc.Checker.trace);
      if domains = 1 then
        check_int "states equal" p.Mc.Checker.stats.Mc.Checker.states
          r.Mc.Checker.stats.Mc.Checker.states)
    [ 1; 3 ]

(* Satellite 6 pin: the whole [check] pipeline at --domains 1 and
   --domains 4 regenerates the committed examples/mc stuck artifact byte
   for byte — the frontier refactor moved nothing observable. *)
let test_committed_artifact_byte_equal () =
  let path = "../examples/mc/mc-regular-stuck.json" in
  let committed =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let cex =
    match Obs.Json.parse committed with
    | Error e -> Alcotest.failf "%s does not parse: %s" path e
    | Ok j -> (
      match Mc.Checker.cex_of_json j with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok c -> c)
  in
  List.iter
    (fun domains ->
      let r = Mc.Checker.check ~domains cex.Mc.Checker.config in
      match r.Mc.Checker.cex with
      | None ->
        Alcotest.failf "domains=%d found no counterexample" domains
      | Some c ->
        Alcotest.(check string)
          (Printf.sprintf "domains=%d regenerates the committed bytes"
             domains)
          committed
          (Obs.Json.to_string_pretty (Mc.Checker.cex_to_json c) ^ "\n"))
    [ 1; 4 ]

(* --- chaos campaign fan-out ------------------------------------------ *)

let test_campaign_domains_deterministic () =
  let cfg =
    {
      (Chaos.Campaign.default_config ~family:Chaos.Campaign.Regular) with
      Chaos.Campaign.writes = 10;
      reads = 8;
      initial = List.init 3 (fun i -> (i, Chaos.Strategy.Collude));
    }
  in
  let logs_seq = Buffer.create 128 and logs_par = Buffer.create 128 in
  let r1 =
    Chaos.Campaign.run
      ~log:(fun l -> Buffer.add_string logs_seq (l ^ "\n"))
      cfg ~seed:11 ~trials:3
  in
  let r2 =
    Chaos.Campaign.run
      ~log:(fun l -> Buffer.add_string logs_par (l ^ "\n"))
      ~domains:3 cfg ~seed:11 ~trials:3
  in
  let verdicts r =
    List.map
      (fun (t : Chaos.Campaign.trial) ->
        Stab.verdict_kind t.outcome.Chaos.Campaign.verdict)
      r.Chaos.Campaign.trials
  in
  check_true "verdicts identical" (verdicts r1 = verdicts r2);
  check_true "log stream identical"
    (String.equal (Buffer.contents logs_seq) (Buffer.contents logs_par));
  check_true "repro artifacts identical"
    (List.for_all2
       (fun (a : Chaos.Campaign.trial) (b : Chaos.Campaign.trial) ->
         match (a.repro, b.repro) with
         | None, None -> true
         | Some ra, Some rb ->
           String.equal
             (Obs.Json.to_string (Chaos.Campaign.repro_to_json ra))
             (Obs.Json.to_string (Chaos.Campaign.repro_to_json rb))
         | _ -> false)
       r1.Chaos.Campaign.trials r2.Chaos.Campaign.trials)

let test_campaign_race_check_agrees () =
  let cfg =
    {
      (Chaos.Campaign.default_config ~family:Chaos.Campaign.Regular) with
      Chaos.Campaign.writes = 10;
      reads = 8;
      initial = List.init 3 (fun i -> (i, Chaos.Strategy.Collude));
    }
  in
  let logs_plain = Buffer.create 128 and logs_checked = Buffer.create 128 in
  let r1 =
    Chaos.Campaign.run
      ~log:(fun l -> Buffer.add_string logs_plain (l ^ "\n"))
      ~domains:2 cfg ~seed:11 ~trials:3
  in
  let r2 =
    Chaos.Campaign.run
      ~log:(fun l -> Buffer.add_string logs_checked (l ^ "\n"))
      ~domains:2 ~race_check:true cfg ~seed:11 ~trials:3
  in
  let verdicts r =
    List.map
      (fun (t : Chaos.Campaign.trial) ->
        Stab.verdict_kind t.outcome.Chaos.Campaign.verdict)
      r.Chaos.Campaign.trials
  in
  check_true "verdicts identical" (verdicts r1 = verdicts r2);
  check_true "log stream identical"
    (String.equal (Buffer.contents logs_plain) (Buffer.contents logs_checked))

let tests =
  [
    case "pool: map preserves order" test_map_order;
    case "pool: domains=1 is plain map" test_map_single_domain;
    case "pool: empty input" test_map_empty;
    case "pool: more domains than items" test_map_more_domains_than_items;
    case "pool: domains=0 rejected" test_map_invalid_domains;
    case "pool: failure reports lowest index" test_failure_lowest_index;
    case "pool: item 0 on caller domain" test_item_zero_on_caller_domain;
    case "pool: clean map_checked is map" test_map_checked_clean_is_map;
    case "pool: map_checked at domains=1" test_map_checked_single_domain;
    case "pool: map_checked catches shared state"
      test_map_checked_catches_shared_state;
    case "pool: recheck suppresses side effects"
      test_map_checked_recheck_suppresses_side_effects;
    case "pool: diverging recheck is nondeterminism"
      test_map_checked_recheck_mismatch;
    case "pool: second-pass failure is nondeterminism"
      test_map_checked_second_pass_failure;
    case "pool: first-pass failure stays Worker_failure"
      test_map_checked_first_pass_failure_wins;
    case "pool: map_checked keeps item 0 on caller"
      test_map_checked_item_zero_on_caller_both_passes;
    case "deque: pop newest, steal oldest" test_deque_pop_newest_steal_oldest;
    case "deque: grows past its initial capacity" test_deque_grows;
    case "visited: agrees with Hashtbl oracle (S=1,2,4,8)"
      test_visited_agrees_with_hashtbl_oracle;
    case "visited: shared first word collision fixture" test_visited_collision_fixture;
    case "visited: concurrent arrivals keep the union"
      test_visited_concurrent_arrivals;
    case "mc: frontier ≡ sequential on config grid"
      test_parallel_agrees_with_sequential;
    case "mc: parallel search reproducible" test_parallel_reproducible;
    case "mc: cex digest independent of domains"
      test_check_digest_independent_of_domains;
    case "mc: race-checked search agrees" test_race_check_agrees;
    case "mc: committed artifact regenerated byte-for-byte"
      test_committed_artifact_byte_equal;
    case "chaos: campaign fan-out deterministic"
      test_campaign_domains_deterministic;
    case "chaos: race-checked campaign agrees"
      test_campaign_race_check_agrees;
    case "visited: grows past its initial slots" test_visited_grows;
    case "visited: multi-word residual (n = 20)" test_visited_multi_word_residual;
  ]
