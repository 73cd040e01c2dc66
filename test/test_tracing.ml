(* Causal tracing and the flight recorder: span allocation and
   propagation, the stabreg/trace/v1 schema, causal-tree reconstruction
   for a read crossing a transient-corruption window, the Chrome
   trace_event export, the mc/chaos profile recorder — and the
   no-perturbation guarantees (tracing changes no outcome; same-seed
   traces are byte-identical). *)

open Util

(* --- span allocator -------------------------------------------------- *)

let test_span_allocator () =
  let t = Obs.Trace_ctx.create () in
  check_int "fresh allocator" 0 (Obs.Trace_ctx.allocated t);
  check_true "none is none" (Obs.Trace_ctx.is_none Obs.Trace_ctx.none);
  let r = Obs.Trace_ctx.root t in
  check_false "root is real" (Obs.Trace_ctx.is_none r);
  check_int "root trace = own id" r.Obs.Trace_ctx.id r.Obs.Trace_ctx.trace;
  check_int "root has no parent" 0 r.Obs.Trace_ctx.parent;
  let c = Obs.Trace_ctx.child t r in
  check_int "child inherits trace" r.Obs.Trace_ctx.trace
    c.Obs.Trace_ctx.trace;
  check_int "child links parent" r.Obs.Trace_ctx.id c.Obs.Trace_ctx.parent;
  check_true "ids increase" (c.Obs.Trace_ctx.id > r.Obs.Trace_ctx.id);
  (* A child of [none] degenerates to a fresh root: orphan replies still
     get their own tree instead of a dangling parent link. *)
  let orphan = Obs.Trace_ctx.child t Obs.Trace_ctx.none in
  check_int "orphan is a root" 0 orphan.Obs.Trace_ctx.parent;
  check_int "orphan starts its own trace" orphan.Obs.Trace_ctx.id
    orphan.Obs.Trace_ctx.trace;
  check_int "three spans allocated" 3 (Obs.Trace_ctx.allocated t)

let test_event_span_json () =
  let t = Obs.Trace_ctx.create () in
  let s = Obs.Trace_ctx.root t in
  let e =
    Obs.Event.Send
      {
        time = 5;
        src = Obs.Event.Client 1;
        dst = Obs.Event.Server 2;
        cls = Obs.Event.Write;
        bytes = 10;
        span = s;
      }
  in
  let j = Obs.Event.to_json e in
  let int_field k =
    match Obs.Json.member k j with
    | Some v -> Obs.Json.to_int_opt v
    | None -> None
  in
  check_true "trace field" (int_field "trace" = Some s.Obs.Trace_ctx.trace);
  check_true "span field" (int_field "span" = Some s.Obs.Trace_ctx.id);
  check_true "parent field" (int_field "parent" = Some 0);
  (* Span-less constructors report Trace_ctx.none. *)
  check_true "drop has no span"
    (Obs.Trace_ctx.is_none
       (Obs.Event.span (Obs.Event.Drop { time = 1; link = "l"; cls = None })))

(* --- an instrumented run crossing a corruption window ---------------- *)

let fault_at = 300

(* The trace subcommand's deployment, in miniature: a regular-register
   writer/reader pair, every server scrambled mid-workload, all events
   collected in memory. *)
let corrupted_run ?(seed = 3) ?(attach = true) () =
  let scn = async_scenario ~seed ~n:9 ~f:1 () in
  let recorded =
    if attach then begin
      let mem, recorded = Obs.Sink.memory () in
      Obs.Hub.attach (Harness.Scenario.hub scn) mem;
      recorded
    end
    else fun () -> []
  in
  let net = scn.Harness.Scenario.net in
  let w = Registers.Swsr_regular.writer ~net ~client_id:100 ~inst:0 in
  let r = Registers.Swsr_regular.reader ~net ~client_id:101 ~inst:0 in
  Harness.Scenario.register_port scn (Registers.Swsr_regular.writer_port w);
  Harness.Scenario.register_port scn (Registers.Swsr_regular.reader_port r);
  Sim.Fault.schedule scn.Harness.Scenario.fault
    ~engine:scn.Harness.Scenario.engine
    ~at:(Sim.Vtime.of_int fault_at) ~prefix:"server.";
  let writer () =
    Harness.Workload.writer_job scn ~tally:(Harness.Workload.tally ()) ~write:(Registers.Swsr_regular.write w)
      ~count:15 ~gap:(Harness.Workload.gap 5 25) ()
  in
  let reader () =
    Harness.Workload.reader_job scn ~tally:(Harness.Workload.tally ())
      ~read:(fun () -> Registers.Swsr_regular.read r)
      ~count:15 ~gap:(Harness.Workload.gap 5 25) ()
  in
  let hw = Sim.Fiber.spawn ~name:"writer" writer in
  let hr = Sim.Fiber.spawn ~name:"reader" reader in
  Harness.Scenario.run scn;
  List.iter
    (fun h ->
      match Sim.Fiber.status h with
      | Sim.Fiber.Done -> ()
      | Sim.Fiber.Running -> Alcotest.fail "workload fiber wedged"
      | Sim.Fiber.Failed e -> raise e)
    [ hw; hr ];
  (scn, recorded ())

(* The first read invoked inside/after the corruption window that also
   completed. *)
let post_fault_read events =
  List.find_map
    (function
      | Obs.Event.Op_invoke { time; id; op = `Read; span; _ }
        when time >= fault_at ->
        List.find_map
          (function
            | Obs.Event.Op_return { time = rt; id = rid; _ } when rid = id ->
              Some (time, rt, span)
            | _ -> None)
          events
      | _ -> None)
    events

let test_causal_tree_of_corrupted_read () =
  let _, events = corrupted_run () in
  check_true "fault fired"
    (List.exists
       (function Obs.Event.Fault_injected _ -> true | _ -> false)
       events);
  match post_fault_read events with
  | None -> Alcotest.fail "no completed post-corruption read"
  | Some (inv, ret, span) -> (
    match Obs.Tracefile.tree_for events ~trace:span.Obs.Trace_ctx.trace with
    | None -> Alcotest.fail "no causal tree for the read's trace"
    | Some t ->
      check_int "tree rooted at the op span" span.Obs.Trace_ctx.id
        t.Obs.Tracefile.span;
      check_true "op events on the root"
        (List.exists
           (function Obs.Event.Op_invoke _ -> true | _ -> false)
           t.Obs.Tracefile.events
        && List.exists
             (function Obs.Event.Op_return _ -> true | _ -> false)
             t.Obs.Tracefile.events);
      check_true "broadcast round child" (t.Obs.Tracefile.children <> []);
      let round = List.hd t.Obs.Tracefile.children in
      let sends =
        List.filter
          (function Obs.Event.Send _ -> true | _ -> false)
          round.Obs.Tracefile.events
      in
      check_int "READ broadcast to all nine servers" 9 (List.length sends);
      check_true "server phase transitions attributed"
        (List.exists
           (function
             | Obs.Event.Phase { phase; _ } -> phase = "handle.READ"
             | _ -> false)
           round.Obs.Tracefile.events);
      check_true "reply spans under the round"
        (round.Obs.Tracefile.children <> []);
      let lo, hi = Obs.Tracefile.span_interval t in
      check_true "interval covers the op" (lo <= inv && hi >= ret);
      let rows = Obs.Tracefile.breakdown t in
      check_true "breakdown: op row plus per-phase rows"
        (List.length rows >= 2))

let events_to_jsonl ~seed events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Obs.Json.to_string (Obs.Tracefile.header ~experiment:"TEST" ~seed));
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf (Obs.Json.to_string (Obs.Event.to_json e));
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let test_trace_file_validates () =
  let _, events = corrupted_run () in
  let contents = events_to_jsonl ~seed:3 events in
  (match Obs.Tracefile.validate contents with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace file invalid: %s" e);
  check_true "empty file rejected"
    (Result.is_error (Obs.Tracefile.validate ""));
  check_true "wrong header rejected"
    (Result.is_error (Obs.Tracefile.validate "{\"schema\":\"nope\"}\n"));
  let header =
    Obs.Json.to_string (Obs.Tracefile.header ~experiment:"T" ~seed:1)
  in
  (match Obs.Tracefile.validate (header ^ "\n{\"kind\":\"mystery\"}\n") with
  | Ok () -> Alcotest.fail "junk event accepted"
  | Error e ->
    check_true "error names line 2"
      (let rec contains i =
         i + 6 <= String.length e
         && (String.sub e i 6 = "line 2" || contains (i + 1))
       in
       contains 0))

let test_trace_byte_identical () =
  let _, a = corrupted_run ~seed:11 () in
  let _, b = corrupted_run ~seed:11 () in
  check_true "same-seed runs trace byte-identically"
    (String.equal (events_to_jsonl ~seed:11 a) (events_to_jsonl ~seed:11 b))

(* Tracing must be pure observation: history, results and even span
   allocation identical whether or not a sink is attached. *)
let test_tracing_changes_nothing () =
  let history scn =
    List.map
      (fun (o : Oracles.History.op) ->
        ( o.Oracles.History.proc,
          Sim.Vtime.to_int o.inv,
          Sim.Vtime.to_int o.resp,
          Registers.Value.to_string o.value ))
      (Oracles.History.ops scn.Harness.Scenario.history)
  in
  let scn_on, events = corrupted_run ~seed:5 ~attach:true () in
  let scn_off, no_events = corrupted_run ~seed:5 ~attach:false () in
  check_true "sink recorded" (events <> []);
  check_true "no sink, no events" (no_events = []);
  check_true "histories identical" (history scn_on = history scn_off);
  check_int "same virtual time"
    (Sim.Vtime.to_int (Harness.Scenario.now scn_off))
    (Sim.Vtime.to_int (Harness.Scenario.now scn_on));
  check_int "span allocation is observability-independent"
    (Obs.Trace_ctx.allocated
       (Sim.Engine.spans scn_off.Harness.Scenario.engine))
    (Obs.Trace_ctx.allocated
       (Sim.Engine.spans scn_on.Harness.Scenario.engine))

(* --- Chrome trace_event export --------------------------------------- *)

let test_chrome_export () =
  let _, events = corrupted_run () in
  let j = Obs.Chrome_trace.to_json events in
  (match Obs.Chrome_trace.validate j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chrome export invalid: %s" e);
  let entries =
    match Obs.Json.member "traceEvents" j with
    | Some l -> Option.value ~default:[] (Obs.Json.to_list_opt l)
    | None -> []
  in
  let ph p e =
    match Obs.Json.member "ph" e with
    | Some s -> Obs.Json.to_string_opt s = Some p
    | None -> false
  in
  check_true "has slices" (List.exists (ph "X") entries);
  check_true "has thread metadata" (List.exists (ph "M") entries);
  check_true "fault becomes an instant"
    (List.exists
       (fun e ->
         ph "i" e
         &&
         match Obs.Json.member "cat" e with
         | Some s -> Obs.Json.to_string_opt s = Some "fault"
         | None -> false)
       entries);
  check_true "rejects a negative duration"
    (Result.is_error
       (Obs.Chrome_trace.validate
          (Obs.Json.Obj
             [
               ( "traceEvents",
                 Obs.Json.List
                   [
                     Obs.Json.Obj
                       [
                         ("name", Obs.Json.Str "bad");
                         ("cat", Obs.Json.Str "span");
                         ("ph", Obs.Json.Str "X");
                         ("ts", Obs.Json.Int 4);
                         ("dur", Obs.Json.Int (-1));
                         ("pid", Obs.Json.Int 1);
                         ("tid", Obs.Json.Int 0);
                       ];
                   ] );
             ])))

(* --- the flight recorder --------------------------------------------- *)

let test_profile_cadence () =
  let p = Obs.Profile.create ~every:10 ~kind:"mc" () in
  check_true "first tick is due" (Obs.Profile.due p ~tick:1);
  Obs.Profile.sample p ~tick:1 (fun () -> [ ("x", Obs.Json.Int 1) ]);
  check_int "recorded" 1 (Obs.Profile.samples p);
  check_false "within cadence" (Obs.Profile.due p ~tick:5);
  let evaluated = ref false in
  Obs.Profile.sample p ~tick:5 (fun () ->
      evaluated := true;
      []);
  check_false "thunk not evaluated when skipped" !evaluated;
  check_int "skipped" 1 (Obs.Profile.samples p);
  Obs.Profile.sample p ~tick:11 (fun () -> [ ("x", Obs.Json.Int 2) ]);
  check_int "cadence passed" 2 (Obs.Profile.samples p);
  Obs.Profile.sample ~force:true p ~tick:12 (fun () -> []);
  check_int "force overrides cadence" 3 (Obs.Profile.samples p);
  let b = Obs.Profile.branch p in
  check_int "branch starts empty" 0 (Obs.Profile.samples b);
  Obs.Profile.add_section p "domains" (Obs.Json.List []);
  let j = Obs.Profile.to_json p in
  (match Obs.Profile.validate j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "profile invalid: %s" e);
  check_true "section serialized"
    (match Obs.Json.member "sections" j with
    | Some s -> Obs.Json.member "domains" s <> None
    | None -> false);
  check_true "zero cadence rejected"
    (try
       ignore (Obs.Profile.create ~every:0 ~kind:"mc" ());
       false
     with Invalid_argument _ -> true)

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

let stats_tuple (s : Mc.Checker.stats) =
  ( s.Mc.Checker.states,
    s.Mc.Checker.transitions,
    s.Mc.Checker.terminals,
    s.Mc.Checker.revisits,
    s.Mc.Checker.sleep_skips,
    s.Mc.Checker.sym_skips,
    s.Mc.Checker.fp_collisions,
    s.Mc.Checker.max_depth_seen )

let test_mc_recorder () =
  let plain = Mc.Checker.search tiny_cfg in
  let rec_ = Obs.Profile.create ~every:100 ~kind:"mc" () in
  let profiled = Mc.Checker.search ~recorder:rec_ tiny_cfg in
  check_true "recording perturbs nothing"
    (stats_tuple plain.Mc.Checker.stats
    = stats_tuple profiled.Mc.Checker.stats);
  check_true "verdicts agree"
    (Stab.verdict_equal plain.Mc.Checker.verdict
       profiled.Mc.Checker.verdict);
  check_true "samples recorded" (Obs.Profile.samples rec_ > 0);
  (match Obs.Profile.validate (Obs.Profile.to_json rec_) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mc profile invalid: %s" e);
  (* Every sample carries the full stat set. *)
  let last = List.hd (List.rev (Obs.Profile.sample_jsons rec_)) in
  List.iter
    (fun k ->
      check_true ("sample field " ^ k) (Obs.Json.member k last <> None))
    [
      "tick"; "elapsed_s"; "states"; "transitions"; "depth"; "visited";
      "revisits"; "sleep_skips"; "sym_skips"; "fp_collisions"; "replays";
    ]

let test_mc_recorder_domains () =
  let rec_ = Obs.Profile.create ~every:100 ~kind:"mc" () in
  let frontier =
    Mc.Checker.search_parallel ~recorder:rec_ ~domains:2 tiny_cfg
  in
  let plain = Mc.Checker.search tiny_cfg in
  check_true "frontier verdict matches sequential"
    (Stab.verdict_equal frontier.Mc.Checker.verdict
       plain.Mc.Checker.verdict);
  let j = Obs.Profile.to_json rec_ in
  (match Obs.Profile.validate j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "frontier profile invalid: %s" e);
  match Obs.Json.member "sections" j with
  | None -> Alcotest.fail "no sections"
  | Some sections -> (
    match Obs.Json.member "domains" sections with
    | None -> Alcotest.fail "no domains section"
    | Some d ->
      check_true "cooperative mode recorded"
        (match Obs.Json.member "mode" d with
        | Some (Obs.Json.Str m) -> String.equal m "frontier"
        | _ -> false);
      check_true "unique state count recorded"
        (match Obs.Json.member "unique_states" d with
        | Some (Obs.Json.Int n) -> n > 0
        | _ -> false);
      let workers =
        match Obs.Json.member "workers" d with
        | Some w -> Option.value ~default:[] (Obs.Json.to_list_opt w)
        | None -> []
      in
      check_int "one summary per worker" 2 (List.length workers);
      List.iter
        (fun s ->
          List.iter
            (fun k ->
              check_true ("worker field " ^ k) (Obs.Json.member k s <> None))
            [
              "worker"; "states"; "transitions"; "replays"; "steals";
              "utilization"; "samples";
            ])
        workers)

let test_chaos_recorder () =
  let cfg = Chaos.Campaign.default_config ~family:Chaos.Campaign.Regular in
  let verdicts r =
    List.map
      (fun (t : Chaos.Campaign.trial) ->
        Stab.verdict_kind t.Chaos.Campaign.outcome.Chaos.Campaign.verdict)
      r.Chaos.Campaign.trials
  in
  let plain = Chaos.Campaign.run cfg ~seed:5 ~trials:3 in
  let rec_ = Obs.Profile.create ~every:1 ~kind:"chaos" () in
  let profiled = Chaos.Campaign.run ~recorder:rec_ cfg ~seed:5 ~trials:3 in
  check_true "recording perturbs no trial"
    (verdicts plain = verdicts profiled);
  check_int "one sample per trial" 3 (Obs.Profile.samples rec_);
  (match Obs.Profile.validate (Obs.Profile.to_json rec_) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chaos profile invalid: %s" e);
  (* Fanning out over domains must not change the sample timeline (modulo
     the injected clock, which defaults to a constant here). *)
  let rec2 = Obs.Profile.create ~every:1 ~kind:"chaos" () in
  let fanned =
    Chaos.Campaign.run ~recorder:rec2 ~domains:2 cfg ~seed:5 ~trials:3
  in
  check_true "domains change no outcome" (verdicts plain = verdicts fanned);
  check_true "sample timeline domain-independent"
    (Obs.Profile.sample_jsons rec_ = Obs.Profile.sample_jsons rec2)

let test_profile_write () =
  let p = Obs.Profile.create ~kind:"mc" () in
  Obs.Profile.sample p ~tick:1 (fun () -> [ ("states", Obs.Json.Int 1) ]);
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "stabreg-profile-test"
  in
  let path = Obs.Profile.write ~dir ~name:"p1" p in
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Obs.Profile.validate (Obs.Json.parse_exn s) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "written profile invalid: %s" e

(* --- composite operations' span trees -------------------------------- *)

(* Every event of a run rendered as a trace line, then every causal tree
   it builds.  One user-level operation of a composite register is one
   tree whose nested spans name each layer it crosses. *)
let render_spans events =
  let buf = Buffer.create 65536 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Obs.Json.to_string (Obs.Event.to_json e));
      Buffer.add_char buf '\n')
    events;
  List.iter
    (fun t -> Buffer.add_string buf (Format.asprintf "%a@." Obs.Tracefile.pp_tree t))
    (Obs.Tracefile.trees events);
  Buffer.contents buf

let recorded_run ?(seed = 7) ?(compromise = fun _ -> ()) jobs =
  let scn = async_scenario ~seed () in
  compromise scn;
  let mem, recorded = Obs.Sink.memory () in
  Obs.Hub.attach (Harness.Scenario.hub scn) mem;
  run_fibers scn (jobs scn.Harness.Scenario.net);
  render_spans (recorded ())

let kv_spans () =
  recorded_run ~seed:5
    ~compromise:(fun scn ->
      Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 3
        Byzantine.Behavior.equivocate)
    (fun net ->
      let cfg = Kv.Store.config ~keys:[ "x"; "y" ] ~clients:2 in
      let s0 = Kv.Store.client ~net ~cfg ~id:0 ~client_id:400 in
      let s1 = Kv.Store.client ~net ~cfg ~id:1 ~client_id:401 in
      [
        ( "c0",
          fun () ->
            ignore (Kv.Store.set_o s0 ~key:"x" (int_value 1));
            ignore (Kv.Store.get_o s0 ~key:"y") );
        ( "c1",
          fun () ->
            ignore (Kv.Store.set_o s1 ~key:"y" (int_value 2));
            ignore (Kv.Store.get_o s1 ~key:"x") );
      ])

let swmr_wb_spans () =
  recorded_run (fun net ->
      let w = Registers.Swmr_wb.writer ~net ~client_id:100 ~base_inst:0 ~readers:2 () in
      let r j =
        Registers.Swmr_wb.reader ~net ~client_id:(200 + j) ~base_inst:0
          ~reader_index:j ()
      in
      let r0 = r 0 and r1 = r 1 in
      [
        ( "wb",
          fun () ->
            ignore (Registers.Swmr_wb.write w (int_value 3));
            ignore (Registers.Swmr_wb.read r0);
            ignore (Registers.Swmr_wb.read r1) );
      ])

let baseline_spans () =
  let nonstab =
    recorded_run
      ~compromise:(fun scn ->
        Registers.Baseline.Nonstab.install_servers ~net:scn.Harness.Scenario.net
          (Byzantine.Adversary.servers scn.Harness.Scenario.adversary))
      (fun net ->
        let w = Registers.Baseline.Nonstab.writer ~net ~client_id:100 ~inst:0 in
        let r = Registers.Baseline.Nonstab.reader ~net ~client_id:101 ~inst:0 in
        [
          ( "nonstab",
            fun () ->
              Registers.Baseline.Nonstab.write w (int_value 4);
              ignore (Registers.Baseline.Nonstab.read r) );
        ])
  in
  let quiescent =
    recorded_run (fun net ->
        let w = Registers.Baseline.Quiescent.writer ~net ~client_id:100 ~inst:0 in
        let r = Registers.Baseline.Quiescent.reader ~net ~client_id:101 ~inst:0 in
        [
          ( "quiescent",
            fun () ->
              Registers.Baseline.Quiescent.write w (int_value 5);
              ignore (Registers.Baseline.Quiescent.read r) );
        ])
  in
  nonstab ^ quiescent

(* The events and trees of kv set/get under an equivocator, a write-back
   SWMR write and reads, and both E7 baselines, pinned by digest: how a
   composite operation is driven must not move a span, an event or a
   tick. *)
let test_composite_span_trees () =
  let digest s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "kv set/get" "ac3845c6931f8783271d87598b3f0c64" (digest (kv_spans ()));
  Alcotest.(check string) "swmr_wb write, reads with write-back" "9bcf9a275d94c995729683c092dbf3a8"
    (digest (swmr_wb_spans ()));
  Alcotest.(check string) "nonstab and quiescent write/read" "0f3d3a453a6b81558b1aa8c317cff40b"
    (digest (baseline_spans ()))

let tests =
  [
    case "span allocator: roots, children, orphans" test_span_allocator;
    case "event JSON carries span fields" test_event_span_json;
    case "causal tree of a post-corruption read"
      test_causal_tree_of_corrupted_read;
    case "trace file validates (and bad files don't)"
      test_trace_file_validates;
    case "same-seed traces are byte-identical" test_trace_byte_identical;
    case "tracing changes nothing" test_tracing_changes_nothing;
    case "chrome trace_event export" test_chrome_export;
    case "profile cadence and sections" test_profile_cadence;
    case "mc search flight recorder" test_mc_recorder;
    case "mc recorder across domains" test_mc_recorder_domains;
    case "chaos campaign flight recorder" test_chaos_recorder;
    case "profile write/reparse" test_profile_write;
    case "composite span trees are pinned" test_composite_span_trees;
  ]
