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
        "--race-fraction=F (absent=1.)";
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
       ~prefix:"stabreg-experiments: unknown experiment(s): E99" err)

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

let tests =
  [
    case "help surface pinned" test_help_surface;
    case "usage errors exit 124" test_usage_errors;
    case "chaos replay honours --expect" test_chaos_replay_expect;
    case "mc replay honours --expect" test_mc_replay_expect;
    case "recovery replay honours --expect-converged"
      test_recovery_replay_expect;
    case "shard expectations judge every mode" test_shard_expect_every_mode;
  ]
