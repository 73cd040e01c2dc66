(* The experiments command line, driven in-process through Cmdliner: the
   flag surface is pinned against a table of every subcommand's options,
   usage errors keep exit code 124, and every expectation flag judges the
   run the command actually made, replays included. *)

open Util
open Cmdliner

(* Run the CLI on [args]; the exit code and whatever went to stderr. *)
let eval args =
  let err = Buffer.create 256 in
  let code =
    Cmd.eval
      ~err:(Format.formatter_of_buffer err)
      ~argv:(Array.of_list ("stabreg-experiments" :: args))
      Exp_drivers.Cli.main
  in
  (code, Buffer.contents err)

let check_exit what expected args =
  let code, err = eval args in
  if code <> expected then
    Alcotest.failf "%s: exit %d, expected %d (%s)" what code expected err

(* The header line of every option and positional argument in a
   [--help=plain] page: names, docv and default, without the prose. *)
let surface help =
  let header l =
    let t = String.sub l 7 (String.length l - 7) in
    let rec cut i =
      if i + 1 >= String.length t then t
      else if t.[i] = ' ' && t.[i + 1] = ' ' then String.sub t 0 i
      else cut (i + 1)
    in
    String.trim (cut 0)
  in
  let _, acc =
    List.fold_left
      (fun (section, acc) l ->
        if l <> "" && l.[0] <> ' ' then (String.trim l, acc)
        else if
          (section = "OPTIONS" || section = "ARGUMENTS")
          && String.length l > 7
          && String.sub l 0 7 = "       "
          && l.[7] <> ' '
        then (section, header l :: acc)
        else (section, acc))
      ("", [])
      (String.split_on_char '\n' help)
  in
  List.rev acc

(* Every subcommand's options (long and short names, docv, default) and
   positional arguments, as rendered before the subcommands shared their
   flag specs. *)
let pinned =
  [
    ( "run",
      [
        "ID";
        "--json[=DIR] (default=results)";
        "--seed=SEED (absent=1)";
        "--trace-out=FILE";
      ] );
    ( "list",
      [] );
    ( "trace",
      [
        "--chrome=FILE";
        "--out=FILE";
        "--seed=SEED (absent=1)";
      ] );
    ( "validate",
      [
        "FILE (required)";
      ] );
    ( "chaos",
      [
        "--byz=K (absent=1)";
        "--domains=K (absent=1)";
        "--expect=WHAT";
        "--family=FAMILY (absent=regular)";
        "--json[=DIR] (default=results)";
        "--medium=MEDIUM (absent=fifo)";
        "--out=DIR (absent=results/chaos)";
        "--profile-out=FILE";
        "--race-check";
        "--replay=FILE";
        "--seed=SEED (absent=1)";
        "--strategy=S (absent=garbage)";
        "--trace-out=FILE";
        "--trials=N (absent=5)";
      ] );
    ( "mc",
      [
        "--byz=K (absent=0)";
        "--corrupt=SPEC";
        "--cross-check";
        "--depth=D (absent=10000)";
        "--domains=K (absent=1)";
        "--expect=WHAT";
        "--family=FAMILY (absent=regular)";
        "--guide=FILE";
        "--json[=DIR] (default=results)";
        "--max-states=S (absent=2000000)";
        "--no-reduction";
        "--no-visited";
        "--oracle=ORACLE (absent=default)";
        "--order-seed=SEED";
        "--out=DIR (absent=results/mc)";
        "--profile-every=N (absent=1000)";
        "--profile-out=FILE";
        "--race-check";
        "--read-budget=K (absent=8)";
        "--reads=K (absent=1)";
        "--replay=FILE";
        "--seed=SEED (absent=1)";
        "--sequential-check";
        "--servers=N (absent=9)";
        "--strategy=S (absent=silent)";
        "-t T, --fault-bound=T (absent=1)";
        "--target=KIND";
        "--trace-out=FILE";
        "--writes=K (absent=1)";
      ] );
    ( "recovery",
      [
        "--bursts=K (absent=3)";
        "--crashed=K (absent=2)";
        "--down-for=TICKS (absent=120)";
        "--expect-converged";
        "--json[=DIR] (default=results)";
        "-n N";
        "--no-retry";
        "--out=DIR (absent=results/recovery)";
        "--replay=FILE";
        "--seed=SEED (absent=1)";
        "--trace-out=FILE";
      ] );
    ( "shard",
      [
        "--chaos-target=S";
        "--clients=C (absent=32)";
        "--domains=K (absent=1)";
        "--expect-clean";
        "--expect-isolated";
        "--json[=DIR] (default=results)";
        "--keys=K (absent=64)";
        "--mean-gap=G (absent=3)";
        "-n N (absent=9)";
        "--no-retry";
        "--ops=K (absent=400)";
        "--out=DIR (absent=results/shard)";
        "--replay=FILE";
        "--seed=SEED (absent=1)";
        "--shards=S";
        "--theta=T (absent=0.99)";
        "--trace-out=FILE";
        "--trials=N (absent=3)";
        "--vnodes=V (absent=16)";
        "--write-ratio=R (absent=0.5)";
      ] );
  ]

let test_help_surface () =
  List.iter
    (fun (sub, expected) ->
      let help = Buffer.create 4096 in
      let code =
        Cmd.eval
          ~help:(Format.formatter_of_buffer help)
          ~argv:[| "stabreg-experiments"; sub; "--help=plain" |]
          Exp_drivers.Cli.main
      in
      check_int (sub ^ " --help exits 0") 0 code;
      Alcotest.(check (list string))
        (sub ^ " flag surface") expected
        (surface (Buffer.contents help)))
    pinned

let test_usage_errors () =
  check_exit "--replay with --guide" 124
    [
      "mc"; "--replay"; "../examples/mc/mc-regular-stuck.json"; "--guide";
      "../examples/mc/inversion-witness.json";
    ];
  let code, err = eval [ "run"; "E99" ] in
  check_int "unknown experiment exits 124" 124 code;
  check_true "names the unknown id"
    (String.starts_with
       ~prefix:"stabreg-experiments: unknown experiment(s): E99" err);
  (* A trace file's header names one experiment: more than one is
     refused before anything runs or any file is opened. *)
  let trace = Filename.temp_file "stabreg-trace" ".jsonl" in
  Sys.remove trace;
  List.iter
    (fun ids ->
      let what = "run " ^ String.concat " " ids ^ " --trace-out" in
      let code, err = eval (("run" :: ids) @ [ "--trace-out"; trace ]) in
      check_int (what ^ " exits 124") 124 code;
      check_true (what ^ " names --trace-out")
        (String.starts_with ~prefix:"stabreg-experiments: --trace-out" err);
      check_false (what ^ " writes no trace") (Sys.file_exists trace))
    [ [ "E1"; "E2" ]; [ "all" ] ]

(* Out-of-range counts and fractions are usage errors that name the
   flag, not uncaught exceptions from inside the run (exit 125). *)
let test_range_checked_numbers () =
  List.iter
    (fun (flag, args) ->
      let code, err = eval args in
      let what = String.concat " " args in
      check_int (what ^ " exits 124") 124 code;
      check_true (what ^ " names the flag")
        (String.starts_with
           ~prefix:(Printf.sprintf "stabreg-experiments: option '%s': " flag)
           err))
    [
      ("--domains", [ "mc"; "--domains"; "0" ]);
      ("--domains", [ "chaos"; "--domains"; "0" ]);
      ("--domains", [ "shard"; "--domains"; "0" ]);
      ("--trials", [ "chaos"; "--trials=-1" ]);
      ("--trials", [ "shard"; "--chaos-target"; "0"; "--trials=-1" ]);
      ("--keys", [ "shard"; "--keys"; "0" ]);
      ("--byz", [ "chaos"; "--byz=-1" ]);
      ("--byz", [ "chaos"; "--byz"; "10" ]);
      ("--byz", [ "mc"; "--byz=-1" ]);
      ("--shards", [ "shard"; "--shards"; "0" ]);
      ("--shards", [ "shard"; "--shards"; "1"; "--shards=-2" ]);
      ("-n", [ "recovery"; "-n"; "0" ]);
      ("--crashed", [ "recovery"; "--crashed=-1" ]);
      ("--bursts", [ "recovery"; "--bursts=-1" ]);
      ("--down-for", [ "recovery"; "--down-for=-5" ]);
      ("--ops", [ "shard"; "--ops=-1" ]);
      ("--max-states", [ "mc"; "--max-states=-1" ]);
      ("--depth", [ "mc"; "--depth=0" ]);
      ("--depth", [ "mc"; "--depth=-3" ]);
      ("--profile-every", [ "mc"; "--profile-every=0"; "--profile-out"; "profile.json" ]);
      ("-n", [ "shard"; "-n"; "0" ]);
      ("--vnodes", [ "shard"; "--vnodes"; "0" ]);
      ("--clients", [ "shard"; "--clients"; "0" ]);
      ("--mean-gap", [ "shard"; "--mean-gap=-5" ]);
      ("--theta", [ "shard"; "--theta=-1" ]);
      ("--write-ratio", [ "shard"; "--write-ratio=1.5" ]);
      ("--chaos-target", [ "shard"; "--chaos-target=9" ]);
    ]

let test_chaos_replay_expect () =
  let repro = "../examples/chaos/regular_collude_repro.json" in
  check_exit "violating repro --expect clean" 124
    [ "chaos"; "--replay"; repro; "--expect"; "clean" ];
  check_exit "violating repro --expect violation" 0
    [ "chaos"; "--replay"; repro; "--expect"; "violation" ]

let test_mc_replay_expect () =
  let cex = "../examples/mc/mc-regular-stuck.json" in
  check_exit "stuck cex --expect clean" 124
    [ "mc"; "--replay"; cex; "--expect"; "clean" ];
  check_exit "stuck cex --expect violation" 0
    [ "mc"; "--replay"; cex; "--expect"; "violation" ]

let tmp_dir name = Filename.concat (Filename.get_temp_dir_name ()) name

(* A copy of [path] with its first [old] replaced by [by]. *)
let doctored path ~old ~by name =
  let s = Obs.File.read path in
  let n = String.length old in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%s: no %s" path old
    else if String.equal (String.sub s i n) old then i
    else find (i + 1)
  in
  let i = find 0 in
  let copy = tmp_dir name in
  Out_channel.with_open_bin copy (fun oc ->
      output_string oc
        (String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)));
  copy

(* A delivery label that names no link is a decoding error, not a move
   that silently never fires. *)
let test_mc_malformed_labels () =
  let bogus =
    doctored "../examples/mc/mc-regular-stuck.json" ~old:"link:c100->s0"
      ~by:"link:bogus" "stabreg-cli-bogus-label.json"
  in
  check_exit "validate" 124 [ "validate"; bogus ];
  check_exit "mc --replay" 124 [ "mc"; "--replay"; bogus ];
  let witness =
    doctored "../examples/mc/inversion-witness.json" ~old:"link:c100->s0"
      ~by:"link:c100-s0" "stabreg-cli-bad-witness.json"
  in
  check_exit "mc --guide" 124
    [ "mc"; "--guide"; witness; "--out"; tmp_dir "stabreg-cli-guide" ];
  Sys.remove bogus;
  Sys.remove witness

let test_recovery_replay_expect () =
  (* Every slot down at once with no retry layer: the run never
     converges, and its artifact replays bit-for-bit. *)
  let out = tmp_dir "stabreg-cli-recovery" in
  check_exit "non-converging sweep without the flag" 0
    [
      "recovery"; "-n"; "9"; "--crashed"; "9"; "--down-for"; "1000";
      "--no-retry"; "--out"; out;
    ];
  let artifact = Filename.concat out "recovery-n9-seed1.json" in
  check_exit "replay without the flag" 0 [ "recovery"; "--replay"; artifact ];
  check_exit "replay --expect-converged" 124
    [ "recovery"; "--replay"; artifact; "--expect-converged" ];
  Sys.remove artifact

let test_shard_expect_every_mode () =
  check_exit "chaos report replay, both expectations" 0
    [
      "shard"; "--replay"; "../examples/shard/chaos_isolation_t0.json";
      "--expect-isolated"; "--expect-clean";
    ];
  (* A sweep report carries no chaos plan, so it cannot certify
     isolation. *)
  let out = tmp_dir "stabreg-cli-shard" in
  let sweep = [ "shard"; "--shards"; "1"; "--ops"; "40"; "--out"; out ] in
  check_exit "sweep --expect-clean" 0 (sweep @ [ "--expect-clean" ]);
  check_exit "sweep --expect-isolated" 124 (sweep @ [ "--expect-isolated" ]);
  Sys.remove (Filename.concat out "shard-S1-seed1.json")

(* A round corruption aimed at a client the family does not have would
   be a silent no-op move: the config is rejected before any search. *)
let test_mc_round_client_checked () =
  let code, err =
    eval
      [
        "mc"; "--family"; "regular"; "--servers"; "3"; "-t"; "0"; "--corrupt";
        "round:999:5"; "--expect"; "clean";
      ]
  in
  check_int "round:999 exits 124" 124 code;
  check_true "names the client"
    (String.starts_with
       ~prefix:"stabreg-experiments: round corruption names client 999" err)

let tests =
  [
    case "help surface pinned" test_help_surface;
    case "usage errors exit 124" test_usage_errors;
    case "out-of-range numbers exit 124" test_range_checked_numbers;
    case "chaos replay honours --expect" test_chaos_replay_expect;
    case "mc replay honours --expect" test_mc_replay_expect;
    case "malformed mc labels exit 124" test_mc_malformed_labels;
    case "mc round corruption names a real client"
      test_mc_round_client_checked;
    case "recovery replay honours --expect-converged"
      test_recovery_replay_expect;
    case "shard expectations judge every mode" test_shard_expect_every_mode;
  ]
