(* Experiment driver: regenerates every table of EXPERIMENTS.md.

     dune exec bin/experiments.exe -- run all
     dune exec bin/experiments.exe -- run E1 E3 --seed 42
     dune exec bin/experiments.exe -- list
*)

let all : (string * string * (seed:int -> unit)) list =
  [
    ("E1", "Figure 1: new/old inversion, regular vs atomic", Exp_drivers.Exp_e1.run);
    ("E2", "stabilization after a full transient fault", Exp_drivers.Exp_e2.run);
    ("E3", "asynchronous resilience bound (t < n/8)", Exp_drivers.Exp_e3.run);
    ("E4", "synchronous resilience bound (t < n/3)", Exp_drivers.Exp_e4.run);
    ("E5", "reader cost vs write pressure (helping)", Exp_drivers.Exp_e5.run);
    ("E6", "bounded epochs under sequence exhaustion", Exp_drivers.Exp_e6.run);
    ("E7", "baselines: classical and quiescence-dependent", Exp_drivers.Exp_e7.run);
    ("E8", "alternating-bit data link (footnote 3)", Exp_drivers.Exp_e8.run);
    ("E9", "message cost per operation", Exp_drivers.Exp_e9.run);
    ("E10", "mobile Byzantine faults (footnote 1)", Exp_drivers.Exp_e10.run);
    ("E11", "registers over lossy links (ss-transport)", Exp_drivers.Exp_e11.run);
    ("E12", "ablation: the lines N2-N7 sanity phase", Exp_drivers.Exp_e12.run);
    ("E13", "SWMR composition vs reader write-back", Exp_drivers.Exp_e13.run);
    ("E14", "scalability with n", Exp_drivers.Exp_e14.run);
  ]

open Cmdliner

let ids_arg =
  let doc = "Experiment ids to run (E1..E14), or $(b,all)." in
  Arg.(value & pos_all string [ "all" ] & info [] ~docv:"ID" ~doc)

let seed_arg =
  let doc = "Root random seed; every table is deterministic given it." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let json_arg =
  let doc =
    "Write one machine-readable run report per experiment as \
     $(docv)/<exp>.json (schema stabreg/run-report/v1).  $(docv) defaults \
     to $(b,results) when the flag is given without a value."
  in
  Arg.(
    value
    & opt ~vopt:(Some "results") (some string) None
    & info [ "json" ] ~docv:"DIR" ~doc)

let trace_out_arg =
  let doc =
    "Append the typed event stream of every instrumented deployment to \
     $(docv) as JSON lines (one event per line)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let run_cmd =
  let run ids seed json trace =
    Exp_drivers.Common.json_dir := json;
    Exp_drivers.Common.trace_out := trace;
    let wanted =
      if List.exists (fun id -> String.lowercase_ascii id = "all") ids then
        List.map (fun (id, _, _) -> id) all
      else ids
    in
    let unknown =
      List.filter
        (fun id -> not (List.exists (fun (i, _, _) -> i = id) all))
        wanted
    in
    match unknown with
    | _ :: _ ->
      `Error
        (false, "unknown experiment(s): " ^ String.concat ", " unknown)
    | [] ->
      List.iter
        (fun id ->
          let _, _, f = List.find (fun (i, _, _) -> i = id) all in
          Exp_drivers.Common.with_report ~exp:id ~seed (fun () -> f ~seed))
        wanted;
      Exp_drivers.Common.close_trace ();
      `Ok ()
  in
  let doc = "Run experiments and print their tables." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(ret (const run $ ids_arg $ seed_arg $ json_arg $ trace_out_arg))

let validate_cmd =
  let validate files =
    let problems =
      List.filter_map
        (fun path ->
          match
            Exp_drivers.Artifacts.validate (Exp_drivers.Common.read_file path)
          with
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
  let files_arg =
    let doc =
      "Artifact files to check: run reports, JSONL traces, mc profiles, \
       Chrome-trace exports, mc counterexamples and guides, chaos repros, \
       recovery or shard reports, lint reports/baselines and lint-domains \
       inventories — the schema is sniffed from the file itself."
    in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Validate artifacts (run reports, traces, profiles, Chrome \
          exports, counterexamples, repros) against their versioned \
          schemas.")
    Term.(ret (const validate $ files_arg))

let trace_cmd =
  (* A regular-register workload crossed by a transient-corruption burst,
     with full causal tracing: pick one interesting read (the first one
     issued after the burst, falling back to the slowest), reconstruct its
     causal tree from the span graph, and print a per-phase latency
     breakdown.  Optional exports: the whole run as a stabreg/trace/v1
     JSONL file and/or a Perfetto-loadable Chrome trace_event JSON. *)
  let out_arg =
    let doc = "Write the run's full event stream to $(docv) as a \
               stabreg/trace/v1 JSONL file." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let chrome_arg =
    let doc =
      "Export the run as Chrome trace_event JSON to $(docv) (open in \
       Perfetto or chrome://tracing)."
    in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  let trace seed out chrome =
    let fault_at = 300 in
    let params =
      Registers.Params.create_exn ~n:9 ~f:1 ~mode:Registers.Params.Async ()
    in
    let scn = Harness.Scenario.create ~seed ~params () in
    let mem, recorded = Obs.Sink.memory () in
    Obs.Hub.attach (Harness.Scenario.hub scn) mem;
    let net = scn.Harness.Scenario.net in
    let w = Registers.Swsr_regular.writer ~net ~client_id:100 ~inst:0 in
    let r = Registers.Swsr_regular.reader ~net ~client_id:101 ~inst:0 in
    Harness.Scenario.register_port scn
      (Registers.Swsr_regular.writer_port w);
    Harness.Scenario.register_port scn
      (Registers.Swsr_regular.reader_port r);
    (* The transient-corruption window: every registered server target
       (cells, helping state) is scrambled mid-workload. *)
    Sim.Fault.schedule scn.Harness.Scenario.fault
      ~engine:scn.Harness.Scenario.engine
      ~at:(Sim.Vtime.of_int fault_at) ~prefix:"server.";
    Exp_drivers.Common.run_jobs scn
      [
        ( "writer",
          fun () ->
            Harness.Workload.writer_job scn
              ~write:(Registers.Swsr_regular.write w)
              ~count:20 ~gap:(Harness.Workload.gap 5 25) () );
        ( "reader",
          fun () ->
            Harness.Workload.reader_job scn
              ~read:(fun () -> Registers.Swsr_regular.read r)
              ~count:20 ~gap:(Harness.Workload.gap 5 25) () );
      ];
    let events = recorded () in
    Printf.printf
      "swsr_regular workload, n=9 t=1, transient server corruption at \
       t=%d\n"
      fault_at;
    Harness.Report.kv
      [
        ( "virtual time",
          string_of_int (Sim.Vtime.to_int (Harness.Scenario.now scn)) );
        ("events", string_of_int (List.length events));
        ( "spans",
          string_of_int
            (Obs.Trace_ctx.allocated
               (Sim.Engine.spans scn.Harness.Scenario.engine)) );
        ( "messages delivered",
          string_of_int (Harness.Scenario.messages_sent scn) );
      ];
    print_newline ();
    (* One row per completed read: (invoke, return, span). *)
    let reads =
      List.filter_map
        (fun e ->
          match e with
          | Obs.Event.Op_invoke { time; id; op = `Read; span; _ } ->
            let ret =
              List.find_map
                (fun e' ->
                  match e' with
                  | Obs.Event.Op_return { time = rt; id = rid; _ }
                    when rid = id -> Some rt
                  | Obs.Event.Op_return _ | Obs.Event.Op_invoke _
                  | Obs.Event.Send _ | Obs.Event.Recv _ | Obs.Event.Drop _
                  | Obs.Event.Phase _ | Obs.Event.Fault_injected _
                  | Obs.Event.Stabilized _ | Obs.Event.Mark _ -> None)
                events
            in
            Option.map (fun rt -> (time, rt, span)) ret
          | Obs.Event.Op_invoke _ | Obs.Event.Op_return _ | Obs.Event.Send _
          | Obs.Event.Recv _ | Obs.Event.Drop _ | Obs.Event.Phase _
          | Obs.Event.Fault_injected _ | Obs.Event.Stabilized _
          | Obs.Event.Mark _ -> None)
        events
    in
    let target =
      match
        List.find_opt (fun (inv, _, _) -> inv >= fault_at) reads
      with
      | Some pick ->
        Printf.printf "picked: first read invoked after the corruption \
                       burst\n";
        Some pick
      | None ->
        (match
           List.fold_left
             (fun acc (inv, ret, span) ->
               match acc with
               | Some (i, r2, _) when r2 - i >= ret - inv -> acc
               | Some _ | None -> Some (inv, ret, span))
             None reads
         with
        | Some pick ->
          Printf.printf "picked: slowest read of the run\n";
          Some pick
        | None -> None)
    in
    (match target with
    | None -> Printf.printf "no completed read to trace\n"
    | Some (inv, ret, span) -> (
      Printf.printf "read invoked t=%d, returned t=%d (%d ticks)\n\n" inv
        ret (ret - inv);
      match
        Obs.Tracefile.tree_for events ~trace:span.Obs.Trace_ctx.trace
      with
      | None -> Printf.printf "span %d: no causal tree found\n" span.Obs.Trace_ctx.id
      | Some t ->
        Format.printf "causal tree:@.%a@." Obs.Tracefile.pp_tree t;
        Format.printf "latency breakdown:@.%a@." Obs.Tracefile.pp_breakdown
          (Obs.Tracefile.breakdown t)));
    (match out with
    | None -> ()
    | Some path ->
      let buf = Buffer.create 65536 in
      Buffer.add_string buf
        (Obs.Json.to_string
           (Obs.Tracefile.header ~experiment:"TRACE" ~seed));
      Buffer.add_char buf '\n';
      List.iter
        (fun e ->
          Buffer.add_string buf (Obs.Json.to_string (Obs.Event.to_json e));
          Buffer.add_char buf '\n')
        events;
      Exp_drivers.Common.write_file path (Buffer.contents buf);
      Printf.printf "trace written to %s (%s)\n" path
        Obs.Tracefile.schema_version);
    match chrome with
    | None -> `Ok ()
    | Some path -> (
      let j = Obs.Chrome_trace.to_json events in
      match Obs.Chrome_trace.validate j with
      | Error e -> `Error (false, "chrome export failed validation: " ^ e)
      | Ok () ->
        Exp_drivers.Common.write_artifact path j;
        Printf.printf "chrome trace written to %s\n" path;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace one corrupted run causally: reconstruct and pretty-print \
          the span tree of an interesting read, with optional JSONL and \
          Chrome trace_event exports.")
    Term.(ret (const trace $ seed_arg $ out_arg $ chrome_arg))

let chaos_cmd =
  let family_conv =
    Arg.conv
      ( (fun s ->
          Result.map_error
            (fun e -> `Msg e)
            (Chaos.Campaign.family_of_string s)),
        fun fmt f ->
          Format.pp_print_string fmt (Chaos.Campaign.family_to_string f) )
  in
  let medium_conv =
    let parse = function
      | "fifo" -> Ok Chaos.Campaign.Fifo
      | "lossy" -> Ok Chaos.Campaign.Lossy
      | s -> Error (`Msg (Printf.sprintf "unknown medium %S" s))
    in
    Arg.conv
      ( parse,
        fun fmt m ->
          Format.pp_print_string fmt
            (match m with Chaos.Campaign.Fifo -> "fifo" | Lossy -> "lossy") )
  in
  let strategy_conv =
    Arg.conv
      ( (fun s ->
          Result.map_error (fun e -> `Msg e) (Chaos.Strategy.of_string s)),
        fun fmt s -> Format.pp_print_string fmt (Chaos.Strategy.to_string s) )
  in
  let family_arg =
    let doc = "Register family to attack: $(b,regular), $(b,atomic) or \
               $(b,mwmr)." in
    Arg.(
      value
      & opt family_conv Chaos.Campaign.Regular
      & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let trials_arg =
    let doc = "Number of randomized trials in the campaign." in
    Arg.(value & opt int 5 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let byz_arg =
    let doc =
      "Compromise the first $(docv) server slots before the run starts \
       (beyond the schedule's own mobile roams).  More than t slots \
       deliberately exceeds the resilience bound."
    in
    Arg.(value & opt int 1 & info [ "byz" ] ~docv:"K" ~doc)
  in
  let strategy_arg =
    let doc =
      "Strategy of the $(b,--byz) slots: $(b,silent), $(b,garbage), \
       $(b,equivocate), $(b,frozen), $(b,collude), $(b,flaky:<p>), \
       $(b,delayed:<ticks>) or $(b,crash:<k>)."
    in
    Arg.(
      value
      & opt strategy_conv Chaos.Strategy.Garbage
      & info [ "strategy" ] ~docv:"S" ~doc)
  in
  let medium_arg =
    let doc =
      "Communication medium: $(b,fifo) (reliable links) or $(b,lossy) \
       (self-stabilizing transports; enables link-chaos windows)."
    in
    Arg.(
      value
      & opt medium_conv Chaos.Campaign.Fifo
      & info [ "medium" ] ~docv:"MEDIUM" ~doc)
  in
  let out_arg =
    let doc = "Directory for shrunk counterexample artifacts." in
    Arg.(
      value & opt string "results/chaos" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let replay_arg =
    let doc =
      "Re-execute a repro artifact instead of running a campaign; fails \
       unless the replay reproduces the recorded verdict."
    in
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let expect_arg =
    let expect_conv =
      let parse = function
        | "clean" -> Ok `Clean
        | "violation" -> Ok `Violation
        | s -> Error (`Msg (Printf.sprintf "unknown expectation %S" s))
      in
      Arg.conv
        ( parse,
          fun fmt e ->
            Format.pp_print_string fmt
              (match e with `Clean -> "clean" | `Violation -> "violation") )
    in
    let doc =
      "Fail (exit non-zero) unless the campaign ends as stated: $(b,clean) \
       (no trial violated) or $(b,violation) (at least one did).  Gives \
       CI a one-flag assertion for both sides of the resilience bound."
    in
    Arg.(
      value & opt (some expect_conv) None & info [ "expect" ] ~docv:"WHAT" ~doc)
  in
  let domains_arg =
    let doc =
      "Fan the campaign trials out over $(docv) OS-level domains.  Trials \
       are deterministic in their derived seeds, so the result is \
       identical for every value — only wall-clock changes."
    in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"K" ~doc)
  in
  let race_check_arg =
    let doc =
      "Run the trial fan-out through Pool.map_checked: every trial runs \
       twice with inverted scheduling order and the campaign fails \
       unless outcomes, repros and log bytes are bit-identical \
       (deterministic race harness)."
    in
    Arg.(value & flag & info [ "race-check" ] ~doc)
  in
  let race_fraction_arg =
    let doc =
      "With $(b,--race-check), re-run only this fraction of the trials in \
       the inverted-order second pass (selected deterministically from \
       the campaign seed), so race checking a soak-sized campaign does \
       not double its wall-clock.  1.0 (the default) re-checks every \
       trial."
    in
    Arg.(value & opt float 1.0 & info [ "race-fraction" ] ~docv:"F" ~doc)
  in
  let profile_arg =
    let doc =
      "Write a stabreg/mc-profile/v1 flight-recorder timeline of the \
       campaign (one sample per completed trial) to $(docv)."
    in
    Arg.(
      value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE" ~doc)
  in
  let chaos family trials byz strategy medium out replay expect domains
      race_check race_fraction seed json trace profile =
    Exp_drivers.Common.json_dir := json;
    Exp_drivers.Common.trace_out := trace;
    let recorder =
      Option.map
        (fun _ ->
          Obs.Profile.create ~every:1 ~clock:Stdlib.Sys.time ~kind:"chaos" ())
        profile
    in
    let status = ref (`Ok ()) in
    let exp = "CHAOS-" ^ Chaos.Campaign.family_to_string family in
    (match replay with
    | Some path ->
      Exp_drivers.Common.with_report ~exp:"CHAOS-replay" ~seed (fun () ->
          match Exp_drivers.Exp_chaos.replay path with
          | Ok () -> ()
          | Error e -> status := `Error (false, e))
    | None ->
      Exp_drivers.Common.with_report ~exp ~seed (fun () ->
          let violations =
            Exp_drivers.Exp_chaos.run ~family ~medium ~byz ~strategy ~seed
              ~trials ~domains ~race_check ~race_fraction ~out ?recorder ()
          in
          match (expect, violations) with
          | Some `Clean, _ :: _ ->
            status :=
              `Error
                ( false,
                  Printf.sprintf "expected a clean campaign, got %d violation(s)"
                    (List.length violations) )
          | Some `Violation, [] ->
            status :=
              `Error (false, "expected a violation, campaign ran clean")
          | _ -> ()));
    (match (profile, recorder) with
    | Some path, Some r -> Exp_drivers.Common.write_profile path r
    | (Some _ | None), _ -> ());
    Exp_drivers.Common.close_trace ();
    !status
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
        (const chaos $ family_arg $ trials_arg $ byz_arg $ strategy_arg
       $ medium_arg $ out_arg $ replay_arg $ expect_arg $ domains_arg
       $ race_check_arg $ race_fraction_arg $ seed_arg $ json_arg
       $ trace_out_arg $ profile_arg))

let mc_cmd =
  let mc_family_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Mc.Config.family_of_string s)),
        fun fmt f -> Format.pp_print_string fmt (Mc.Config.family_to_string f)
      )
  in
  let byz_kind_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ "silent" ] -> Ok Mc.Config.Silent
      | [ "collude" ] -> Ok (Mc.Config.Collude { sn = 99; v = 999 })
      | [ "collude"; sn; v ] -> (
        match (int_of_string_opt sn, int_of_string_opt v) with
        | Some sn, Some v -> Ok (Mc.Config.Collude { sn; v })
        | _ -> Error (`Msg "collude:<sn>:<v> wants integers"))
      | _ ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown byzantine behavior %S (silent, collude, \
                 collude:<sn>:<v>)"
                s))
    in
    Arg.conv
      ( parse,
        fun fmt k ->
          Format.pp_print_string fmt
            (match k with
            | Mc.Config.Silent -> "silent"
            | Mc.Config.Collude { sn; v } ->
              Printf.sprintf "collude:%d:%d" sn v) )
  in
  let corrupt_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ "server"; i; sn; v ] -> (
        match
          (int_of_string_opt i, int_of_string_opt sn, int_of_string_opt v)
        with
        | Some server, Some sn, Some v ->
          Ok (Mc.Config.Corrupt_server { server; sn; v })
        | _ -> Error (`Msg "server:<i>:<sn>:<v> wants integers"))
      | [ "reader"; pwsn; v ] -> (
        match (int_of_string_opt pwsn, int_of_string_opt v) with
        | Some pwsn, Some v -> Ok (Mc.Config.Corrupt_reader { pwsn; v })
        | _ -> Error (`Msg "reader:<pwsn>:<v> wants integers"))
      | [ "writer"; sn ] -> (
        match int_of_string_opt sn with
        | Some sn -> Ok (Mc.Config.Corrupt_writer_sn sn)
        | None -> Error (`Msg "writer:<sn> wants an integer"))
      | [ "round"; client; round ] -> (
        match (int_of_string_opt client, int_of_string_opt round) with
        | Some client, Some round ->
          Ok (Mc.Config.Corrupt_round { client; round })
        | _ -> Error (`Msg "round:<client>:<round> wants integers"))
      | [ "crashrec"; i ] -> (
        match int_of_string_opt i with
        | Some server -> Ok (Mc.Config.Crash_recover { server })
        | None -> Error (`Msg "crashrec:<i> wants an integer"))
      | _ ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown corruption %S (server:<i>:<sn>:<v>, \
                 reader:<pwsn>:<v>, writer:<sn>, round:<client>:<round>, \
                 crashrec:<i>)"
                s))
    in
    Arg.conv
      ( parse,
        fun fmt c ->
          Format.pp_print_string fmt
            (match c with
            | Mc.Config.Corrupt_server { server; sn; v } ->
              Printf.sprintf "server:%d:%d:%d" server sn v
            | Mc.Config.Corrupt_reader { pwsn; v } ->
              Printf.sprintf "reader:%d:%d" pwsn v
            | Mc.Config.Corrupt_writer_sn sn -> Printf.sprintf "writer:%d" sn
            | Mc.Config.Corrupt_round { client; round } ->
              Printf.sprintf "round:%d:%d" client round
            | Mc.Config.Crash_recover { server } ->
              Printf.sprintf "crashrec:%d" server) )
  in
  let family_arg =
    let doc =
      "Register family to check: $(b,regular), $(b,atomic) or $(b,mwmr)."
    in
    Arg.(
      value
      & opt mc_family_conv Mc.Config.Regular
      & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let servers_arg =
    let doc = "Number of servers n." in
    Arg.(value & opt int 9 & info [ "servers" ] ~docv:"N" ~doc)
  in
  let t_arg =
    let doc = "Declared fault bound t the protocol is parameterized with." in
    Arg.(value & opt int 1 & info [ "t"; "fault-bound" ] ~docv:"T" ~doc)
  in
  let byz_arg =
    let doc =
      "Make the first $(docv) server slots Byzantine.  More than t slots \
       deliberately exceeds the paper's t < n/8 resilience bound."
    in
    Arg.(value & opt int 0 & info [ "byz" ] ~docv:"K" ~doc)
  in
  let strategy_arg =
    let doc =
      "Deterministic behavior of the $(b,--byz) slots: $(b,silent), \
       $(b,collude) or $(b,collude:<sn>:<v>)."
    in
    Arg.(
      value
      & opt byz_kind_conv Mc.Config.Silent
      & info [ "strategy" ] ~docv:"S" ~doc)
  in
  let writes_arg =
    let doc = "Writes per writer." in
    Arg.(value & opt int 1 & info [ "writes" ] ~docv:"K" ~doc)
  in
  let reads_arg =
    let doc = "Reads per reader." in
    Arg.(value & opt int 1 & info [ "reads" ] ~docv:"K" ~doc)
  in
  let read_budget_arg =
    let doc = "Maximum inquiry iterations per read." in
    Arg.(value & opt int 8 & info [ "read-budget" ] ~docv:"K" ~doc)
  in
  let corrupt_arg =
    let doc =
      "Add one transient-corruption choice to the menu (repeatable): \
       $(b,server:<i>:<sn>:<v>), $(b,reader:<pwsn>:<v>), $(b,writer:<sn>), \
       $(b,round:<client>:<round>) or $(b,crashrec:<i>) (crash-recovery: \
       the server rejoins with wiped state).  The explorer fires each menu \
       item at most once per execution, at every possible point."
    in
    Arg.(value & opt_all corrupt_conv [] & info [ "corrupt" ] ~docv:"SPEC" ~doc)
  in
  let oracle_arg =
    let doc =
      "Safety oracle: $(b,default) (per family) or $(b,atomic) (force the \
       SW-atomicity oracle — against the regular family this exhibits the \
       Fig. 1 new/old inversion)."
    in
    let oracle_conv =
      Arg.conv
        ( (fun s ->
            Result.map_error (fun e -> `Msg e) (Mc.Config.oracle_of_string s)),
          fun fmt o ->
            Format.pp_print_string fmt (Mc.Config.oracle_to_string o) )
    in
    Arg.(
      value
      & opt oracle_conv Mc.Config.Family_default
      & info [ "oracle" ] ~docv:"ORACLE" ~doc)
  in
  let depth_arg =
    let doc = "Depth budget (moves per execution)." in
    Arg.(
      value
      & opt int Mc.Checker.default_budgets.Mc.Checker.max_depth
      & info [ "depth" ] ~docv:"D" ~doc)
  in
  let max_states_arg =
    let doc = "State budget (nodes expanded before truncating)." in
    Arg.(
      value
      & opt int Mc.Checker.default_budgets.Mc.Checker.max_states
      & info [ "max-states" ] ~docv:"S" ~doc)
  in
  let no_reduction_arg =
    let doc =
      "Disable the sleep-set partial-order reduction and symmetric-move \
       pruning (state merging stays on)."
    in
    Arg.(value & flag & info [ "no-reduction" ] ~doc)
  in
  let no_visited_arg =
    let doc =
      "Disable state merging entirely (every interleaving explored \
       verbatim; only feasible on tiny configurations)."
    in
    Arg.(value & flag & info [ "no-visited" ] ~doc)
  in
  let cross_check_arg =
    let doc =
      "After the reduced search, re-search with $(b,--no-reduction) and \
       fail unless both agree on the verdict (soundness check for the \
       partial-order reduction)."
    in
    Arg.(value & flag & info [ "cross-check" ] ~doc)
  in
  let expect_arg =
    let expect_conv =
      let parse = function
        | "clean" -> Ok `Clean
        | "violation" -> Ok `Violation
        | s -> Error (`Msg (Printf.sprintf "unknown expectation %S" s))
      in
      Arg.conv
        ( parse,
          fun fmt e ->
            Format.pp_print_string fmt
              (match e with `Clean -> "clean" | `Violation -> "violation") )
    in
    let doc =
      "Fail (exit non-zero) unless the search ends as stated: $(b,clean) \
       (exhaustively verified, no violation) or $(b,violation) (a \
       counterexample was found, shrunk and replayed)."
    in
    Arg.(
      value & opt (some expect_conv) None & info [ "expect" ] ~docv:"WHAT" ~doc)
  in
  let order_seed_arg =
    let doc =
      "Shuffle the exploration order at every node, deterministically from \
       this seed (swarm-style hunting: the reduced state space and any \
       exhaustive verdict are unchanged, but a state budget reaches \
       different corners first)."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "order-seed" ] ~docv:"SEED" ~doc)
  in
  let target_arg =
    let doc =
      "Hunt one violation kind (e.g. $(b,inversion), $(b,stuck), \
       $(b,liveness), $(b,regularity)): terminals violating some other \
       way are counted and skipped.  A clean verdict under a target only \
       certifies the absence of that kind."
    in
    Arg.(
      value & opt (some string) None & info [ "target" ] ~docv:"KIND" ~doc)
  in
  let domains_arg =
    let doc =
      "Search cooperatively with $(docv) OS-level domains sharing one \
       work-stealing frontier and one sharded visited set — one state \
       space explored once, not K overlapping copies.  The reported \
       verdict, counterexample and artifact digest are bit-identical to \
       the sequential search for every value (traces are re-derived by \
       the canonical sequential order whenever one is reported); 1 runs \
       the plain sequential searcher."
    in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"K" ~doc)
  in
  let sequential_check_arg =
    let doc =
      "After the (parallel) search, re-search sequentially and fail \
       unless both report the same verdict and the same trace \
       (determinism pin for the cooperative frontier search)."
    in
    Arg.(value & flag & info [ "sequential-check" ] ~doc)
  in
  let race_check_arg =
    let doc =
      "Run the frontier search twice, the second pass with the \
       steal-victim order inverted, and fail unless both project to the \
       same verdict, trace and exhaustiveness (deterministic race \
       harness; at $(b,--domains) 1 the sequential search is re-run and \
       must be structurally identical)."
    in
    Arg.(value & flag & info [ "race-check" ] ~doc)
  in
  let out_arg =
    let doc = "Directory for counterexample artifacts." in
    Arg.(value & opt string "results/mc" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let replay_arg =
    let doc =
      "Re-execute a counterexample artifact instead of searching; fails \
       unless the replay reproduces the recorded verdict and terminal \
       state bit-for-bit."
    in
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let guide_arg =
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
  let profile_arg =
    let doc =
      "Write a stabreg/mc-profile/v1 flight-recorder timeline of the \
       search (periodic samples on the state counter: states, pruning \
       hits, visited-set occupancy, per-domain utilization) to $(docv)."
    in
    Arg.(
      value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE" ~doc)
  in
  let profile_every_arg =
    let doc = "Minimum states between $(b,--profile-out) samples." in
    Arg.(value & opt int 1000 & info [ "profile-every" ] ~docv:"N" ~doc)
  in
  let mc family servers t byz strategy writes reads read_budget corrupt
      oracle depth max_states no_reduction no_visited order_seed target
      cross_check domains sequential_check race_check expect out replay guide
      seed json trace profile profile_every =
    Exp_drivers.Common.json_dir := json;
    Exp_drivers.Common.trace_out := trace;
    let recorder =
      Option.map
        (fun _ ->
          Obs.Profile.create ~every:profile_every ~clock:Stdlib.Sys.time
            ~kind:"mc" ())
        profile
    in
    let status = ref (`Ok ()) in
    (match (replay, guide) with
    | Some _, Some _ ->
      status := `Error (true, "--replay and --guide are mutually exclusive")
    | Some path, None ->
      Exp_drivers.Common.with_report ~exp:"MC-replay" ~seed (fun () ->
          match Exp_drivers.Exp_mc.replay path with
          | Ok () -> ()
          | Error e -> status := `Error (false, e))
    | None, Some path ->
      Exp_drivers.Common.with_report ~exp:"MC-guide" ~seed (fun () ->
          match Exp_drivers.Exp_mc.guide ~expect ~out path with
          | Ok () -> ()
          | Error e -> status := `Error (false, e))
    | None, None ->
      let cfg =
        {
          Mc.Config.family;
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
      let exp = "MC-" ^ Mc.Config.family_to_string family in
      (match Mc.Config.validate cfg with
      | Error e -> status := `Error (false, e)
      | Ok () ->
        Exp_drivers.Common.with_report ~exp ~seed (fun () ->
            let budgets = { Mc.Checker.max_states; max_depth = depth } in
            let reduction =
              if no_reduction then Mc.Checker.No_reduction
              else Mc.Checker.Sleep_sets
            in
            match
              Exp_drivers.Exp_mc.run ~cfg ~budgets ~reduction
                ~use_visited:(not no_visited) ~seed:order_seed ~target
                ~cross_check ~domains ~sequential_check ~race_check ~expect
                ~out ?recorder ()
            with
            | Ok () -> ()
            | Error e -> status := `Error (false, e))));
    (match (profile, recorder) with
    | Some path, Some r -> Exp_drivers.Common.write_profile path r
    | (Some _ | None), _ -> ());
    Exp_drivers.Common.close_trace ();
    !status
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
        (const mc $ family_arg $ servers_arg $ t_arg $ byz_arg $ strategy_arg
       $ writes_arg $ reads_arg $ read_budget_arg $ corrupt_arg $ oracle_arg
       $ depth_arg $ max_states_arg $ no_reduction_arg $ no_visited_arg
       $ order_seed_arg $ target_arg $ cross_check_arg $ domains_arg
       $ sequential_check_arg $ race_check_arg $ expect_arg $ out_arg
       $ replay_arg $ guide_arg $ seed_arg $ json_arg $ trace_out_arg
       $ profile_arg $ profile_every_arg))

let recovery_cmd =
  let n_arg =
    let doc =
      "Run a single system size instead of the default convergence sweep \
       over n = 6..9."
    in
    Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N" ~doc)
  in
  let bursts_arg =
    let doc = "Number of crash-recovery bursts." in
    Arg.(
      value
      & opt int Chaos.Recovery.default_config.Chaos.Recovery.bursts
      & info [ "bursts" ] ~docv:"K" ~doc)
  in
  let crashed_arg =
    let doc = "Server slots crashed per burst (rotating)." in
    Arg.(
      value
      & opt int Chaos.Recovery.default_config.Chaos.Recovery.crashed
      & info [ "crashed" ] ~docv:"K" ~doc)
  in
  let down_arg =
    let doc =
      "Down window per crashed slot, in ticks; the slot rejoins over \
       arbitrary volatile state."
    in
    Arg.(
      value
      & opt int Chaos.Recovery.default_config.Chaos.Recovery.down_for
      & info [ "down-for" ] ~docv:"TICKS" ~doc)
  in
  let no_retry_arg =
    let doc =
      "Disable the client deadline/retry layer (operations may report \
       $(b,degraded) much more often; reads still honor their iteration \
       budget)."
    in
    Arg.(value & flag & info [ "no-retry" ] ~doc)
  in
  let out_arg =
    let doc = "Directory for stabreg/recovery/v1 artifacts." in
    Arg.(
      value & opt string "results/recovery" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let replay_arg =
    let doc =
      "Re-execute a stabreg/recovery/v1 artifact instead of running a \
       sweep; fails unless the replay reproduces the recorded report \
       bit-for-bit."
    in
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let expect_arg =
    let doc =
      "Fail (exit non-zero) unless every size in the sweep converged (its \
       last burst stabilized) with no stuck fibers."
    in
    Arg.(value & flag & info [ "expect-converged" ] ~doc)
  in
  let recovery n bursts crashed down_for no_retry out replay expect seed json
      trace =
    Exp_drivers.Common.json_dir := json;
    Exp_drivers.Common.trace_out := trace;
    let status = ref (`Ok ()) in
    (match replay with
    | Some path ->
      Exp_drivers.Common.with_report ~exp:"RECOVERY-replay" ~seed (fun () ->
          match Exp_drivers.Exp_recovery.replay path with
          | Ok () -> ()
          | Error e -> status := `Error (false, e))
    | None ->
      Exp_drivers.Common.with_report ~exp:"RECOVERY" ~seed (fun () ->
          let ns =
            match n with Some n -> [ n ] | None -> [ 6; 7; 8; 9 ]
          in
          let failed =
            Exp_drivers.Exp_recovery.run ~ns ~bursts ~crashed ~down_for
              ~retry:(not no_retry) ~seed ~out ()
          in
          if expect && failed <> [] then
            status :=
              `Error
                ( false,
                  Printf.sprintf
                    "expected convergence at every size, failed at n=[%s]"
                    (String.concat "; " (List.map string_of_int failed)) )));
    Exp_drivers.Common.close_trace ();
    !status
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
        (const recovery $ n_arg $ bursts_arg $ crashed_arg $ down_arg
       $ no_retry_arg $ out_arg $ replay_arg $ expect_arg $ seed_arg
       $ json_arg $ trace_out_arg))

let shard_cmd =
  let shards_arg =
    let doc =
      "Shard counts to sweep (repeatable); default is the bench ladder 1, \
       2, 4, 8."
    in
    Arg.(value & opt_all int [] & info [ "shards" ] ~docv:"S" ~doc)
  in
  let vnodes_arg =
    let doc = "Virtual nodes per shard on the consistent-hash ring." in
    Arg.(
      value
      & opt int Shard.Tier.default_config.Shard.Tier.vnodes
      & info [ "vnodes" ] ~docv:"V" ~doc)
  in
  let n_arg =
    let doc = "Servers per shard." in
    Arg.(
      value
      & opt int Shard.Tier.default_config.Shard.Tier.n
      & info [ "n" ] ~docv:"N" ~doc)
  in
  let keys_arg =
    let doc = "Number of keys in the keyspace." in
    Arg.(
      value
      & opt int Workload.Openloop.default_config.Workload.Openloop.keys
      & info [ "keys" ] ~docv:"K" ~doc)
  in
  let clients_arg =
    let doc = "Logical clients in the open-loop workload." in
    Arg.(
      value
      & opt int Workload.Openloop.default_config.Workload.Openloop.clients
      & info [ "clients" ] ~docv:"C" ~doc)
  in
  let ops_arg =
    let doc = "Total operations in the workload." in
    Arg.(
      value
      & opt int Workload.Openloop.default_config.Workload.Openloop.ops
      & info [ "ops" ] ~docv:"K" ~doc)
  in
  let theta_arg =
    let doc = "Zipf exponent of key popularity (0 = uniform)." in
    Arg.(
      value
      & opt float Workload.Openloop.default_config.Workload.Openloop.theta
      & info [ "theta" ] ~docv:"T" ~doc)
  in
  let write_ratio_arg =
    let doc = "Fraction of operations that are writes." in
    Arg.(
      value
      & opt float
          Workload.Openloop.default_config.Workload.Openloop.write_ratio
      & info [ "write-ratio" ] ~docv:"R" ~doc)
  in
  let mean_gap_arg =
    let doc = "Mean inter-arrival gap, in virtual ticks." in
    Arg.(
      value
      & opt int Workload.Openloop.default_config.Workload.Openloop.mean_gap
      & info [ "mean-gap" ] ~docv:"G" ~doc)
  in
  let no_retry_arg =
    let doc = "Disable the client deadline/retry layer." in
    Arg.(value & flag & info [ "no-retry" ] ~doc)
  in
  let domains_arg =
    let doc =
      "Fan shards out over $(docv) OS-level domains.  Shards are \
       deterministic in their derived seeds, so the report is identical \
       for every value — only wall-clock changes."
    in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"K" ~doc)
  in
  let out_arg =
    let doc = "Directory for stabreg/shard-report/v1 artifacts." in
    Arg.(value & opt string "results/shard" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let chaos_target_arg =
    let doc =
      "Run a fault-isolation campaign instead of a sweep: every trial \
       aims transient corruption plus crash-recovery at shard $(docv) \
       only, and the oracle asserts the other shards' histories stay \
       clean."
    in
    Arg.(
      value & opt (some int) None & info [ "chaos-target" ] ~docv:"S" ~doc)
  in
  let trials_arg =
    let doc = "Trials in the $(b,--chaos-target) campaign." in
    Arg.(value & opt int 3 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let replay_arg =
    let doc =
      "Re-execute a stabreg/shard-report/v1 artifact instead of running; \
       fails unless the replay reproduces the recorded report \
       bit-for-bit."
    in
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let expect_isolated_arg =
    let doc =
      "Fail (exit non-zero) unless every non-target shard stayed \
       oracle-clean (campaign trials, or a replayed chaos report)."
    in
    Arg.(value & flag & info [ "expect-isolated" ] ~doc)
  in
  let expect_clean_arg =
    let doc =
      "Fail (exit non-zero) unless every run's every shard passed the \
       regularity oracle with no stuck fibers."
    in
    Arg.(value & flag & info [ "expect-clean" ] ~doc)
  in
  let shard shards vnodes n keys clients ops theta write_ratio mean_gap
      no_retry domains out chaos_target trials replay expect_isolated
      expect_clean seed json trace =
    Exp_drivers.Common.json_dir := json;
    Exp_drivers.Common.trace_out := trace;
    let base_cfg =
      {
        Shard.Tier.default_config with
        Shard.Tier.vnodes;
        n;
        retry = not no_retry;
        workload =
          {
            Workload.Openloop.default_config with
            Workload.Openloop.keys;
            clients;
            ops;
            theta;
            write_ratio;
            mean_gap;
          };
      }
    in
    let status = ref (`Ok ()) in
    (match (replay, chaos_target) with
    | Some path, _ ->
      Exp_drivers.Common.with_report ~exp:"SHARD-replay" ~seed (fun () ->
          match Exp_drivers.Exp_shard.replay ~domains path with
          | Error e -> status := `Error (false, e)
          | Ok replayed ->
            if
              expect_isolated
              && not
                   (replayed.Shard.Tier.config.Shard.Tier.chaos <> None
                   && replayed.Shard.Tier.isolated)
            then
              status :=
                `Error
                  ( false,
                    "expected an isolated chaos report, got "
                    ^
                    if replayed.Shard.Tier.config.Shard.Tier.chaos = None
                    then "a report with no chaos plan"
                    else "cross-shard leakage" ))
    | None, Some target ->
      Exp_drivers.Common.with_report ~exp:"SHARD-chaos" ~seed (fun () ->
          let breaches =
            Exp_drivers.Exp_shard.chaos ~target ~trials ~base_cfg ~domains
              ~seed ~out ()
          in
          if expect_isolated && breaches <> [] then
            status :=
              `Error
                ( false,
                  Printf.sprintf
                    "expected isolation, %d trial(s) leaked across shards"
                    (List.length breaches) ))
    | None, None ->
      Exp_drivers.Common.with_report ~exp:"SHARD" ~seed (fun () ->
          let shards_list =
            match shards with [] -> [ 1; 2; 4; 8 ] | l -> l
          in
          let results =
            Exp_drivers.Exp_shard.run ~shards_list ~base_cfg ~domains ~seed
              ~out ()
          in
          let dirty =
            List.filter
              (fun (_, (r : Shard.Tier.report), _) ->
                not r.Shard.Tier.clean)
              results
          in
          if expect_clean && dirty <> [] then
            status :=
              `Error
                ( false,
                  Printf.sprintf "expected clean runs, S=[%s] failed"
                    (String.concat "; "
                       (List.map
                          (fun (s, _, _) -> string_of_int s)
                          dirty)) )));
    Exp_drivers.Common.close_trace ();
    !status
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
        (const shard $ shards_arg $ vnodes_arg $ n_arg $ keys_arg
       $ clients_arg $ ops_arg $ theta_arg $ write_ratio_arg $ mean_gap_arg
       $ no_retry_arg $ domains_arg $ out_arg $ chaos_target_arg
       $ trials_arg $ replay_arg $ expect_isolated_arg $ expect_clean_arg
       $ seed_arg $ json_arg $ trace_out_arg))

let list_cmd =
  let list () =
    List.iter (fun (id, doc, _) -> Printf.printf "%-4s %s\n" id doc) all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments.")
    Term.(const list $ const ())

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

let () = exit (Cmd.eval main)
