(* The experiments command line: one row per subcommand, each built from
   the shared flag specs and run through one report session.

     dune exec bin/experiments.exe -- run all
     dune exec bin/experiments.exe -- run E1 E3 --seed 42
     dune exec bin/experiments.exe -- list
*)

open Cmdliner

let ( let* ) = Result.bind

let experiments : (string * string * (seed:int -> unit)) list =
  [
    ("E1", "Figure 1: new/old inversion, regular vs atomic", Exp_e1.run);
    ("E2", "stabilization after a full transient fault", Exp_e2.run);
    ("E3", "asynchronous resilience bound (t < n/8)", Exp_e3.run);
    ("E4", "synchronous resilience bound (t < n/3)", Exp_e4.run);
    ("E5", "reader cost vs write pressure (helping)", Exp_e5.run);
    ("E6", "bounded epochs under sequence exhaustion", Exp_e6.run);
    ("E7", "baselines: classical and quiescence-dependent", Exp_e7.run);
    ("E8", "alternating-bit data link (footnote 3)", Exp_e8.run);
    ("E9", "message cost per operation", Exp_e9.run);
    ("E10", "mobile Byzantine faults (footnote 1)", Exp_e10.run);
    ("E11", "registers over lossy links (ss-transport)", Exp_e11.run);
    ("E12", "ablation: the lines N2-N7 sanity phase", Exp_e12.run);
    ("E13", "SWMR composition vs reader write-back", Exp_e13.run);
    ("E14", "scalability with n", Exp_e14.run);
  ]

(* --- shared flag specs --- *)

(* A converter from a [(_, string) result] parser and a printer. *)
let result_conv parse print =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (parse s)),
      fun fmt v -> Format.pp_print_string fmt (print v) )

let seed =
  let doc = "Root random seed; every table is deterministic given it." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let json =
  let doc =
    "Write one machine-readable run report per experiment as \
     $(docv)/<exp>.json (schema stabreg/run-report/v1).  $(docv) defaults \
     to $(b,results) when the flag is given without a value."
  in
  Arg.(
    value
    & opt ~vopt:(Some "results") (some string) None
    & info [ "json" ] ~docv:"DIR" ~doc)

let trace_out =
  let doc =
    "Append the typed event stream of every instrumented deployment to \
     $(docv) as JSON lines (one event per line)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let out value_conv default ~docv ~doc =
  Arg.(value & opt value_conv default & info [ "out" ] ~docv ~doc)

let out_dir ~default ~schema =
  out Arg.string default ~docv:"DIR"
    ~doc:(Printf.sprintf "Directory for the %s artifacts the run writes." schema)

let replay ~schema =
  let doc =
    Printf.sprintf
      "Re-execute a %s artifact instead of running; fails unless the \
       replay reproduces what the artifact recorded."
      schema
  in
  Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)

let expect =
  let expect_conv =
    result_conv
      (function
        | "clean" -> Ok `Clean
        | "violation" -> Ok `Violation
        | s -> Error (Printf.sprintf "unknown expectation %S" s))
      (function `Clean -> "clean" | `Violation -> "violation")
  in
  let doc =
    "Fail (exit non-zero) unless the run the command makes (campaign, \
     search, guided run or replay) ends as stated: $(b,clean) (no \
     violation; a search must also be exhaustive) or $(b,violation) (one \
     was found, with a replayable artifact).  Gives CI a one-flag \
     assertion for both sides of the resilience bound."
  in
  Arg.(
    value & opt (some expect_conv) None & info [ "expect" ] ~docv:"WHAT" ~doc)

let domains ~doc = Arg.(value & opt int 1 & info [ "domains" ] ~docv:"K" ~doc)

let no_retry =
  let doc =
    "Disable the client deadline/retry layer (operations may report \
     $(b,degraded) much more often; reads still honor their iteration \
     budget)."
  in
  Arg.(value & flag & info [ "no-retry" ] ~doc)

let race_check ~doc = Arg.(value & flag & info [ "race-check" ] ~doc)

(* --profile-out: the timeline's path paired with the recorder the run
   feeds; [session] writes it when the command ends. *)
let profile_out ~kind ~doc every =
  let path =
    Arg.(
      value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE" ~doc)
  in
  Term.(
    const (fun path every ->
        Option.map
          (fun path ->
            (path, Obs.Profile.create ~every ~clock:Stdlib.Sys.time ~kind ()))
          path)
    $ path $ every)

type common = { seed : int; json : string option; trace_out : string option }

let common =
  Term.(
    const (fun seed json trace_out -> { seed; json; trace_out })
    $ seed $ json $ trace_out)

(* --- one report session --- *)

let ret_of_result = function Ok () -> `Ok () | Error e -> `Error (false, e)

(* Route --json/--trace-out for the run, then close the trace. *)
let with_outputs c f =
  Common.json_dir := c.json;
  Common.trace_out := c.trace_out;
  let result = f () in
  Common.close_trace ();
  ret_of_result result

(* One reporting command: [body] under a run report named [exp], then the
   --profile-out timeline, if any. *)
let session ?profile c ~exp body =
  with_outputs c (fun () ->
      let result = Common.with_report ~exp ~seed:c.seed body in
      Option.iter (fun (path, r) -> Common.write_profile path r) profile;
      result)

(* --expect against the run the command made; [dirty] describes its
   violation, if it had one. *)
let expect_run expect ~run ~dirty =
  match (expect, dirty) with
  | Some `Clean, Some d ->
    Error (Printf.sprintf "expected a clean %s, got %s" run d)
  | Some `Violation, None ->
    Error (Printf.sprintf "expected a violation, %s ran clean" run)
  | (None | Some `Clean | Some `Violation), _ -> Ok ()

(* An --expect-* flag over the labelled reports the run made: fails when
   given and [bad] finds fault with any of them. *)
let expect_all given ~what ~bad reports =
  match
    List.filter_map
      (fun (label, r) -> Option.map (Printf.sprintf "%s %s" label) (bad r))
      reports
  with
  | _ :: _ as failed when given ->
    Error (Printf.sprintf "expected %s: %s" what (String.concat "; " failed))
  | _ -> Ok ()

(* --- subcommands --- *)

let run_cmd =
  let ids =
    let doc = "Experiment ids to run (E1..E14), or $(b,all)." in
    Arg.(value & pos_all string [ "all" ] & info [] ~docv:"ID" ~doc)
  in
  let run ids c =
    let lookup id = List.find_opt (fun (i, _, _) -> i = id) experiments in
    let wanted =
      if List.exists (fun id -> String.lowercase_ascii id = "all") ids then
        List.map (fun (id, _, _) -> id) experiments
      else ids
    in
    match List.filter (fun id -> Option.is_none (lookup id)) wanted with
    | _ :: _ as unknown ->
      `Error (false, "unknown experiment(s): " ^ String.concat ", " unknown)
    | [] ->
      with_outputs c (fun () ->
          List.iter
            (fun id ->
              Option.iter
                (fun (_, _, f) ->
                  Common.with_report ~exp:id ~seed:c.seed (fun () ->
                      f ~seed:c.seed))
                (lookup id))
            wanted;
          Ok ())
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run experiments and print their tables.")
    Term.(ret (const run $ ids $ common))

let list_cmd =
  let list () =
    List.iter (fun (id, doc, _) -> Printf.printf "%-4s %s\n" id doc) experiments
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments.")
    Term.(const list $ const ())

let trace_cmd =
  let out =
    out
      Arg.(some string)
      None ~docv:"FILE"
      ~doc:
        "Write the run's full event stream to $(docv) as a stabreg/trace/v1 \
         JSONL file."
  in
  let chrome =
    let doc =
      "Export the run as Chrome trace_event JSON to $(docv) (open in \
       Perfetto or chrome://tracing)."
    in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  let trace seed out chrome = ret_of_result (Exp_trace.run ~seed ~out ~chrome) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace one corrupted run causally: reconstruct and pretty-print \
          the span tree of an interesting read, with optional JSONL and \
          Chrome trace_event exports.")
    Term.(ret (const trace $ seed $ out $ chrome))

let validate_cmd =
  let files =
    let doc =
      "Artifact files to check: run reports, JSONL traces, mc profiles, \
       Chrome-trace exports, mc counterexamples and guides, chaos repros, \
       recovery or shard reports, lint reports/baselines and lint-domains \
       inventories — the schema is sniffed from the file itself."
    in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let validate files =
    let problems =
      List.filter_map
        (fun path ->
          match Artifacts.validate (Common.read_file path) with
          | Ok schema ->
            Printf.printf "%s: valid (%s)\n" path schema;
            None
          | Error e -> Some (Printf.sprintf "%s: %s" path e))
        files
    in
    match problems with
    | [] ->
      Printf.printf "%d artifact(s) valid\n" (List.length files);
      `Ok ()
    | _ :: _ -> `Error (false, String.concat "\n" problems)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Validate artifacts (run reports, traces, profiles, Chrome \
          exports, counterexamples, repros, lint reports) against their \
          versioned schemas.")
    Term.(ret (const validate $ files))

let chaos_cmd =
  let open Chaos in
  let family =
    let doc = "Register family to attack: $(b,regular), $(b,atomic) or \
               $(b,mwmr)." in
    Arg.(
      value
      & opt (result_conv Campaign.family_of_string Campaign.family_to_string)
          Campaign.Regular
      & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let trials =
    let doc = "Number of randomized trials in the campaign." in
    Arg.(value & opt int 5 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let byz =
    let doc =
      "Compromise the first $(docv) server slots before the run starts \
       (beyond the schedule's own mobile roams).  More than t slots \
       deliberately exceeds the resilience bound."
    in
    Arg.(value & opt int 1 & info [ "byz" ] ~docv:"K" ~doc)
  in
  let strategy =
    let doc =
      "Strategy of the $(b,--byz) slots: $(b,silent), $(b,garbage), \
       $(b,equivocate), $(b,frozen), $(b,collude), $(b,flaky:<p>), \
       $(b,delayed:<ticks>) or $(b,crash:<k>)."
    in
    Arg.(
      value
      & opt (result_conv Strategy.of_string Strategy.to_string) Strategy.Garbage
      & info [ "strategy" ] ~docv:"S" ~doc)
  in
  let medium =
    let doc =
      "Communication medium: $(b,fifo) (reliable links) or $(b,lossy) \
       (self-stabilizing transports; enables link-chaos windows)."
    in
    let medium_conv =
      result_conv
        (function
          | "fifo" -> Ok Campaign.Fifo
          | "lossy" -> Ok Campaign.Lossy
          | s -> Error (Printf.sprintf "unknown medium %S" s))
        (function Campaign.Fifo -> "fifo" | Campaign.Lossy -> "lossy")
    in
    Arg.(
      value & opt medium_conv Campaign.Fifo
      & info [ "medium" ] ~docv:"MEDIUM" ~doc)
  in
  let domains =
    domains
      ~doc:
        "Fan the campaign trials out over $(docv) OS-level domains.  Trials \
         are deterministic in their derived seeds, so the result is \
         identical for every value — only wall-clock changes."
  in
  let race_check =
    race_check
      ~doc:
        "Run the trial fan-out through Pool.map_checked: every trial runs \
         twice with inverted scheduling order and the campaign fails \
         unless outcomes, repros and log bytes are bit-identical \
         (deterministic race harness)."
  in
  let race_fraction =
    let doc =
      "With $(b,--race-check), re-run only this fraction of the trials in \
       the inverted-order second pass (selected deterministically from \
       the campaign seed), so race checking a soak-sized campaign does \
       not double its wall-clock.  1.0 (the default) re-checks every \
       trial."
    in
    Arg.(value & opt float 1.0 & info [ "race-fraction" ] ~docv:"F" ~doc)
  in
  let profile =
    profile_out ~kind:"chaos"
      ~doc:
        "Write a stabreg/mc-profile/v1 flight-recorder timeline of the \
         campaign (one sample per completed trial) to $(docv)."
      (Term.const 1)
  in
  let chaos family trials byz strategy medium out replay expect domains
      race_check race_fraction c profile =
    let exp, run =
      match replay with
      | Some path ->
        ( "CHAOS-replay",
          fun () ->
            let* o = Exp_chaos.replay path in
            expect_run expect ~run:"replay"
              ~dirty:
                (match o.Campaign.verdict with
                | Campaign.Clean -> None
                | v -> Some (Format.asprintf "%a" Campaign.pp_verdict v)) )
      | None ->
        ( "CHAOS-" ^ Campaign.family_to_string family,
          fun () ->
            let violations =
              Exp_chaos.run ~family ~medium ~byz ~strategy ~seed:c.seed
                ~trials ~domains ~race_check ~race_fraction ~out
                ?recorder:(Option.map snd profile) ()
            in
            expect_run expect ~run:"campaign"
              ~dirty:
                (match violations with
                | [] -> None
                | vs -> Some (Printf.sprintf "%d violation(s)" (List.length vs)))
        )
    in
    session ?profile c ~exp run
  in
  let doc =
    "Run a randomized chaos campaign (transient faults, mobile Byzantine \
     roams, link-chaos windows) against one register family, shrinking any \
     counterexample to a minimal replayable artifact."
  in
  Cmd.v
    (Cmd.info "chaos" ~doc)
    Term.(
      ret
        (const chaos $ family $ trials $ byz $ strategy $ medium
        $ out_dir ~default:"results/chaos" ~schema:Campaign.repro_schema
        $ replay ~schema:Campaign.repro_schema
        $ expect $ domains $ race_check $ race_fraction $ common $ profile))

let mc_cmd =
  let open Mc in
  let byz_kind_conv =
    result_conv
      (fun s ->
        match String.split_on_char ':' s with
        | [ "silent" ] -> Ok Config.Silent
        | [ "collude" ] -> Ok (Config.Collude { sn = 99; v = 999 })
        | [ "collude"; sn; v ] -> (
          match (int_of_string_opt sn, int_of_string_opt v) with
          | Some sn, Some v -> Ok (Config.Collude { sn; v })
          | _ -> Error "collude:<sn>:<v> wants integers")
        | _ ->
          Error
            (Printf.sprintf
               "unknown byzantine behavior %S (silent, collude, \
                collude:<sn>:<v>)"
               s))
      (function
        | Config.Silent -> "silent"
        | Config.Collude { sn; v } -> Printf.sprintf "collude:%d:%d" sn v)
  in
  let corrupt_conv =
    result_conv
      (fun s ->
        match String.split_on_char ':' s with
        | [ "server"; i; sn; v ] -> (
          match
            (int_of_string_opt i, int_of_string_opt sn, int_of_string_opt v)
          with
          | Some server, Some sn, Some v ->
            Ok (Config.Corrupt_server { server; sn; v })
          | _ -> Error "server:<i>:<sn>:<v> wants integers")
        | [ "reader"; pwsn; v ] -> (
          match (int_of_string_opt pwsn, int_of_string_opt v) with
          | Some pwsn, Some v -> Ok (Config.Corrupt_reader { pwsn; v })
          | _ -> Error "reader:<pwsn>:<v> wants integers")
        | [ "writer"; sn ] -> (
          match int_of_string_opt sn with
          | Some sn -> Ok (Config.Corrupt_writer_sn sn)
          | None -> Error "writer:<sn> wants an integer")
        | [ "round"; client; round ] -> (
          match (int_of_string_opt client, int_of_string_opt round) with
          | Some client, Some round ->
            Ok (Config.Corrupt_round { client; round })
          | _ -> Error "round:<client>:<round> wants integers")
        | [ "crashrec"; i ] -> (
          match int_of_string_opt i with
          | Some server -> Ok (Config.Crash_recover { server })
          | None -> Error "crashrec:<i> wants an integer")
        | _ ->
          Error
            (Printf.sprintf
               "unknown corruption %S (server:<i>:<sn>:<v>, \
                reader:<pwsn>:<v>, writer:<sn>, round:<client>:<round>, \
                crashrec:<i>)"
               s))
      (function
        | Config.Corrupt_server { server; sn; v } ->
          Printf.sprintf "server:%d:%d:%d" server sn v
        | Config.Corrupt_reader { pwsn; v } ->
          Printf.sprintf "reader:%d:%d" pwsn v
        | Config.Corrupt_writer_sn sn -> Printf.sprintf "writer:%d" sn
        | Config.Corrupt_round { client; round } ->
          Printf.sprintf "round:%d:%d" client round
        | Config.Crash_recover { server } -> Printf.sprintf "crashrec:%d" server)
  in
  let family =
    let doc =
      "Register family to check: $(b,regular), $(b,atomic) or $(b,mwmr)."
    in
    Arg.(
      value
      & opt (result_conv Config.family_of_string Config.family_to_string)
          Config.Regular
      & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let servers =
    let doc = "Number of servers n." in
    Arg.(value & opt int 9 & info [ "servers" ] ~docv:"N" ~doc)
  in
  let t =
    let doc = "Declared fault bound t the protocol is parameterized with." in
    Arg.(value & opt int 1 & info [ "t"; "fault-bound" ] ~docv:"T" ~doc)
  in
  let byz =
    let doc =
      "Make the first $(docv) server slots Byzantine.  More than t slots \
       deliberately exceeds the paper's t < n/8 resilience bound."
    in
    Arg.(value & opt int 0 & info [ "byz" ] ~docv:"K" ~doc)
  in
  let strategy =
    let doc =
      "Deterministic behavior of the $(b,--byz) slots: $(b,silent), \
       $(b,collude) or $(b,collude:<sn>:<v>)."
    in
    Arg.(
      value & opt byz_kind_conv Config.Silent
      & info [ "strategy" ] ~docv:"S" ~doc)
  in
  let writes =
    let doc = "Writes per writer." in
    Arg.(value & opt int 1 & info [ "writes" ] ~docv:"K" ~doc)
  in
  let reads =
    let doc = "Reads per reader." in
    Arg.(value & opt int 1 & info [ "reads" ] ~docv:"K" ~doc)
  in
  let read_budget =
    let doc = "Maximum inquiry iterations per read." in
    Arg.(value & opt int 8 & info [ "read-budget" ] ~docv:"K" ~doc)
  in
  let corrupt =
    let doc =
      "Add one transient-corruption choice to the menu (repeatable): \
       $(b,server:<i>:<sn>:<v>), $(b,reader:<pwsn>:<v>), $(b,writer:<sn>), \
       $(b,round:<client>:<round>) or $(b,crashrec:<i>) (crash-recovery: \
       the server rejoins with wiped state).  The explorer fires each menu \
       item at most once per execution, at every possible point."
    in
    Arg.(value & opt_all corrupt_conv [] & info [ "corrupt" ] ~docv:"SPEC" ~doc)
  in
  let oracle =
    let doc =
      "Safety oracle: $(b,default) (per family) or $(b,atomic) (force the \
       SW-atomicity oracle — against the regular family this exhibits the \
       Fig. 1 new/old inversion)."
    in
    Arg.(
      value
      & opt (result_conv Config.oracle_of_string Config.oracle_to_string)
          Config.Family_default
      & info [ "oracle" ] ~docv:"ORACLE" ~doc)
  in
  let depth =
    let doc = "Depth budget (moves per execution)." in
    Arg.(
      value
      & opt int Checker.default_budgets.Checker.max_depth
      & info [ "depth" ] ~docv:"D" ~doc)
  in
  let max_states =
    let doc = "State budget (nodes expanded before truncating)." in
    Arg.(
      value
      & opt int Checker.default_budgets.Checker.max_states
      & info [ "max-states" ] ~docv:"S" ~doc)
  in
  let no_reduction =
    let doc =
      "Disable the sleep-set partial-order reduction and symmetric-move \
       pruning (state merging stays on)."
    in
    Arg.(value & flag & info [ "no-reduction" ] ~doc)
  in
  let no_visited =
    let doc =
      "Disable state merging entirely (every interleaving explored \
       verbatim; only feasible on tiny configurations)."
    in
    Arg.(value & flag & info [ "no-visited" ] ~doc)
  in
  let cross_check =
    let doc =
      "After the reduced search, re-search with $(b,--no-reduction) and \
       fail unless both agree on the verdict (soundness check for the \
       partial-order reduction)."
    in
    Arg.(value & flag & info [ "cross-check" ] ~doc)
  in
  let order_seed =
    let doc =
      "Shuffle the exploration order at every node, deterministically from \
       this seed (swarm-style hunting: the reduced state space and any \
       exhaustive verdict are unchanged, but a state budget reaches \
       different corners first)."
    in
    Arg.(value & opt (some int) None & info [ "order-seed" ] ~docv:"SEED" ~doc)
  in
  let target =
    let doc =
      "Hunt one violation kind (e.g. $(b,inversion), $(b,stuck), \
       $(b,liveness), $(b,regularity)): terminals violating some other \
       way are counted and skipped.  A clean verdict under a target only \
       certifies the absence of that kind."
    in
    Arg.(value & opt (some string) None & info [ "target" ] ~docv:"KIND" ~doc)
  in
  let domains =
    domains
      ~doc:
        "Search cooperatively with $(docv) OS-level domains sharing one \
         work-stealing frontier and one sharded visited set — one state \
         space explored once, not K overlapping copies.  The reported \
         verdict, counterexample and artifact digest are bit-identical to \
         the sequential search for every value (traces are re-derived by \
         the canonical sequential order whenever one is reported); 1 runs \
         the plain sequential searcher."
  in
  let sequential_check =
    let doc =
      "After the (parallel) search, re-search sequentially and fail \
       unless both report the same verdict and the same trace \
       (determinism pin for the cooperative frontier search)."
    in
    Arg.(value & flag & info [ "sequential-check" ] ~doc)
  in
  let race_check =
    race_check
      ~doc:
        "Run the frontier search twice, the second pass with the \
         steal-victim order inverted, and fail unless both project to the \
         same verdict, trace and exhaustiveness (deterministic race \
         harness; at $(b,--domains) 1 the sequential search is re-run and \
         must be structurally identical)."
  in
  let guide =
    let doc =
      "Check a hand-written witness schedule instead of searching: force \
       the file's moves (config + trace, schema stabreg/mc-guide/v1; a \
       cex artifact works too), drain deterministically, judge the \
       terminal state, and shrink any violation into a replayable \
       artifact.  For interleavings a budgeted search cannot reach \
       unaided."
    in
    Arg.(value & opt (some file) None & info [ "guide" ] ~docv:"FILE" ~doc)
  in
  let profile =
    let every =
      let doc = "Minimum states between $(b,--profile-out) samples." in
      Arg.(value & opt int 1000 & info [ "profile-every" ] ~docv:"N" ~doc)
    in
    profile_out ~kind:"mc"
      ~doc:
        "Write a stabreg/mc-profile/v1 flight-recorder timeline of the \
         search (periodic samples on the state counter: states, pruning \
         hits, visited-set occupancy, per-domain utilization) to $(docv)."
      every
  in
  let mc family servers t byz strategy writes reads read_budget corrupt
      oracle depth max_states no_reduction no_visited order_seed target
      cross_check domains sequential_check race_check expect out replay guide
      c profile =
    match (replay, guide) with
    | Some _, Some _ ->
      `Error (true, "--replay and --guide are mutually exclusive")
    | Some path, None ->
      session ?profile c ~exp:"MC-replay" (fun () ->
          Exp_mc.replay ~expect path)
    | None, Some path ->
      session ?profile c ~exp:"MC-guide" (fun () ->
          Exp_mc.guide ~expect ~out path)
    | None, None -> (
      let cfg =
        {
          Config.family;
          n = servers;
          f = t;
          byz = List.init byz (fun i -> (i, strategy));
          writes;
          reads;
          read_budget;
          menu = corrupt;
          oracle;
        }
      in
      match Config.validate cfg with
      | Error e -> `Error (false, e)
      | Ok () ->
        session ?profile c ~exp:("MC-" ^ Config.family_to_string family)
          (fun () ->
            Exp_mc.run ~cfg
              ~budgets:{ Checker.max_states; max_depth = depth }
              ~reduction:
                (if no_reduction then Checker.No_reduction
                 else Checker.Sleep_sets)
              ~use_visited:(not no_visited) ~seed:order_seed ~target
              ~cross_check ~domains ~sequential_check ~race_check ~expect
              ~out ?recorder:(Option.map snd profile) ()))
  in
  let doc =
    "Exhaustively model-check one register family: enumerate every \
     interleaving of pending message deliveries and transient-corruption \
     choices (up to the budgets), check every terminal execution against \
     the family's safety and stabilization oracles, and shrink any \
     violation to a minimal replayable artifact."
  in
  Cmd.v
    (Cmd.info "mc" ~doc)
    Term.(
      ret
        (const mc $ family $ servers $ t $ byz $ strategy $ writes $ reads
        $ read_budget $ corrupt $ oracle $ depth $ max_states $ no_reduction
        $ no_visited $ order_seed $ target $ cross_check $ domains
        $ sequential_check $ race_check $ expect
        $ out_dir ~default:"results/mc" ~schema:Checker.cex_schema
        $ replay ~schema:Checker.cex_schema
        $ guide $ common $ profile))

let recovery_cmd =
  let open Chaos in
  let n =
    let doc =
      "Run a single system size instead of the default convergence sweep \
       over n = 6..9."
    in
    Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N" ~doc)
  in
  let bursts =
    let doc = "Number of crash-recovery bursts." in
    Arg.(
      value
      & opt int Recovery.default_config.Recovery.bursts
      & info [ "bursts" ] ~docv:"K" ~doc)
  in
  let crashed =
    let doc = "Server slots crashed per burst (rotating)." in
    Arg.(
      value
      & opt int Recovery.default_config.Recovery.crashed
      & info [ "crashed" ] ~docv:"K" ~doc)
  in
  let down_for =
    let doc =
      "Down window per crashed slot, in ticks; the slot rejoins over \
       arbitrary volatile state."
    in
    Arg.(
      value
      & opt int Recovery.default_config.Recovery.down_for
      & info [ "down-for" ] ~docv:"TICKS" ~doc)
  in
  let expect_converged =
    let doc =
      "Fail (exit non-zero) unless every size in the sweep (or the \
       replayed report) converged (its last burst stabilized) with no \
       stuck fibers."
    in
    Arg.(value & flag & info [ "expect-converged" ] ~doc)
  in
  let recovery n bursts crashed down_for no_retry out replay expect_converged
      c =
    let exp, run =
      match replay with
      | Some path ->
        ( "RECOVERY-replay",
          fun () ->
            Result.map (fun r -> [ ("replay", r) ]) (Exp_recovery.replay path)
        )
      | None ->
        ( "RECOVERY",
          fun () ->
            Ok
              (Exp_recovery.run
                 ~ns:(match n with Some n -> [ n ] | None -> [ 6; 7; 8; 9 ])
                 ~bursts ~crashed ~down_for ~retry:(not no_retry) ~seed:c.seed
                 ~out ()) )
    in
    session c ~exp (fun () ->
        let* reports = run () in
        expect_all expect_converged ~what:"convergence"
          ~bad:(fun (r : Recovery.report) ->
            if r.Recovery.converged && r.Recovery.stuck = [] then None
            else Some "did not converge")
          reports)
  in
  let doc =
    "Sweep crash-recovery bursts over system sizes n=6..9: rotating server \
     slots crash and rejoin over arbitrary state while a writer/reader \
     pair operates through the typed-outcome API, and the \
     stabilization-time oracle certifies per-burst convergence.  Writes a \
     replayable stabreg/recovery/v1 artifact per size."
  in
  Cmd.v
    (Cmd.info "recovery" ~doc)
    Term.(
      ret
        (const recovery $ n $ bursts $ crashed $ down_for $ no_retry
        $ out_dir ~default:"results/recovery" ~schema:Recovery.schema
        $ replay ~schema:Recovery.schema
        $ expect_converged $ common))

let shard_cmd =
  let open Workload.Openloop in
  let shards =
    let doc =
      "Shard counts to sweep (repeatable); default is the bench ladder 1, \
       2, 4, 8."
    in
    Arg.(value & opt_all int [] & info [ "shards" ] ~docv:"S" ~doc)
  in
  let vnodes =
    let doc = "Virtual nodes per shard on the consistent-hash ring." in
    Arg.(
      value
      & opt int Shard.Tier.default_config.Shard.Tier.vnodes
      & info [ "vnodes" ] ~docv:"V" ~doc)
  in
  let n =
    let doc = "Servers per shard." in
    Arg.(
      value
      & opt int Shard.Tier.default_config.Shard.Tier.n
      & info [ "n" ] ~docv:"N" ~doc)
  in
  let keys =
    let doc = "Number of keys in the keyspace." in
    Arg.(value & opt int default_config.keys & info [ "keys" ] ~docv:"K" ~doc)
  in
  let clients =
    let doc = "Logical clients in the open-loop workload." in
    Arg.(
      value & opt int default_config.clients
      & info [ "clients" ] ~docv:"C" ~doc)
  in
  let ops =
    let doc = "Total operations in the workload." in
    Arg.(value & opt int default_config.ops & info [ "ops" ] ~docv:"K" ~doc)
  in
  let theta =
    let doc = "Zipf exponent of key popularity (0 = uniform)." in
    Arg.(
      value & opt float default_config.theta & info [ "theta" ] ~docv:"T" ~doc)
  in
  let write_ratio =
    let doc = "Fraction of operations that are writes." in
    Arg.(
      value
      & opt float default_config.write_ratio
      & info [ "write-ratio" ] ~docv:"R" ~doc)
  in
  let mean_gap =
    let doc = "Mean inter-arrival gap, in virtual ticks." in
    Arg.(
      value & opt int default_config.mean_gap
      & info [ "mean-gap" ] ~docv:"G" ~doc)
  in
  let domains =
    domains
      ~doc:
        "Fan shards out over $(docv) OS-level domains.  Shards are \
         deterministic in their derived seeds, so the report is identical \
         for every value — only wall-clock changes."
  in
  let chaos_target =
    let doc =
      "Run a fault-isolation campaign instead of a sweep: every trial \
       aims transient corruption plus crash-recovery at shard $(docv) \
       only, and the oracle asserts the other shards' histories stay \
       clean."
    in
    Arg.(value & opt (some int) None & info [ "chaos-target" ] ~docv:"S" ~doc)
  in
  let trials =
    let doc = "Trials in the $(b,--chaos-target) campaign." in
    Arg.(value & opt int 3 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let expect_isolated =
    let doc =
      "Fail (exit non-zero) unless every report of the run (campaign \
       trials, or a replayed report) carries a chaos plan and every \
       non-target shard stayed oracle-clean."
    in
    Arg.(value & flag & info [ "expect-isolated" ] ~doc)
  in
  let expect_clean =
    let doc =
      "Fail (exit non-zero) unless every run's every shard passed the \
       regularity oracle with no stuck fibers."
    in
    Arg.(value & flag & info [ "expect-clean" ] ~doc)
  in
  let shard shards vnodes n keys clients ops theta write_ratio mean_gap
      no_retry domains out chaos_target trials replay expect_isolated
      expect_clean c =
    let base_cfg =
      {
        Shard.Tier.default_config with
        Shard.Tier.vnodes;
        n;
        retry = not no_retry;
        workload =
          { default_config with keys; clients; ops; theta; write_ratio; mean_gap };
      }
    in
    let exp, run =
      match (replay, chaos_target) with
      | Some path, _ ->
        ( "SHARD-replay",
          fun () ->
            Result.map
              (fun r -> [ ("replay", r) ])
              (Exp_shard.replay ~domains path) )
      | None, Some target ->
        ( "SHARD-chaos",
          fun () ->
            Ok
              (Exp_shard.chaos ~target ~trials ~base_cfg ~domains ~seed:c.seed
                 ~out ()) )
      | None, None ->
        ( "SHARD",
          fun () ->
            Ok
              (Exp_shard.run
                 ~shards_list:(match shards with [] -> [ 1; 2; 4; 8 ] | l -> l)
                 ~base_cfg ~domains ~seed:c.seed ~out ()) )
    in
    session c ~exp (fun () ->
        let* reports = run () in
        let* () =
          expect_all expect_isolated ~what:"isolation"
            ~bad:(fun (r : Shard.Tier.report) ->
              if Option.is_none r.Shard.Tier.config.Shard.Tier.chaos then
                Some "has no chaos plan"
              else if r.Shard.Tier.isolated then None
              else Some "leaked across shards")
            reports
        in
        expect_all expect_clean ~what:"clean runs"
          ~bad:(fun (r : Shard.Tier.report) ->
            if r.Shard.Tier.clean then None else Some "failed the oracle")
          reports)
  in
  let doc =
    "Drive the sharded storage tier with a seeded open-loop Zipfian \
     workload: sweep shard counts reporting per-shard throughput and \
     latency quantiles (default), aim a chaos campaign at a single shard \
     asserting the others stay clean ($(b,--chaos-target)), or replay a \
     committed stabreg/shard-report/v1 artifact bit-for-bit \
     ($(b,--replay))."
  in
  Cmd.v
    (Cmd.info "shard" ~doc)
    Term.(
      ret
        (const shard $ shards $ vnodes $ n $ keys $ clients $ ops $ theta
        $ write_ratio $ mean_gap $ no_retry $ domains
        $ out_dir ~default:"results/shard" ~schema:Shard.Tier.schema
        $ chaos_target $ trials
        $ replay ~schema:Shard.Tier.schema
        $ expect_isolated $ expect_clean $ common))

let main =
  let doc =
    "Reproduction experiments for 'Stabilizing Server-Based Storage in \
     Byzantine Asynchronous Message-Passing Systems' (PODC 2015)."
  in
  Cmd.group
    (Cmd.info "stabreg-experiments" ~version:"1.0.0" ~doc)
    [
      run_cmd; list_cmd; trace_cmd; validate_cmd; chaos_cmd; mc_cmd;
      recovery_cmd; shard_cmd;
    ]
