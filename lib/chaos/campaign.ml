module Stab = Oracles.Stabilization

type family = Stab.family = Regular | Atomic | Mwmr

type medium = Fifo | Lossy

let medium_to_string = function Fifo -> "fifo" | Lossy -> "lossy"

let medium_of_string = function
  | "fifo" -> Ok Fifo
  | "lossy" -> Ok Lossy
  | s -> Error (Printf.sprintf "unknown medium %S" s)

let lossy_base = (0.05, 0.02)

type config = {
  family : family;
  n : int;
  f : int;
  medium : medium;
  initial : (int * Strategy.t) list;
  writes : int;
  reads : int;
  read_budget : int;
  gap_hi : int;
  horizon : int;
  injections : int;
  roams : int;
  roam_max : int;
  windows : int;
  window_max : int;
  crashes : int;
  crash_down : int;
}

let default_config ~family =
  {
    family;
    n = 9;
    f = 1;
    medium = Fifo;
    initial = [ (0, Strategy.Garbage) ];
    writes = 60;
    reads = 45;
    read_budget = 64;
    gap_hi = 25;
    horizon = 3000;
    injections = 3;
    roams = 2;
    roam_max = 1;
    windows = 2;
    window_max = 400;
    crashes = 0;
    crash_down = 250;
  }

type verdict = Stab.verdict =
  | Clean
  | Violation of { kind : string; count : int; detail : string }

let verdict_kind = Stab.verdict_kind

let pp_verdict = Stab.pp_verdict

type outcome = {
  verdict : verdict;
  ops : int;
  duration : int;
  stuck : string list;
}

(* ------------------------------------------------------------------ *)
(* Schedule generation                                                *)

(* Decorrelate the generation stream from the scenario's own generator
   (Scenario.create seeds splitmix from the same trial seed). *)
let gen_rng seed = Sim.Rng.create (seed + 0x5eed_0c4a)

let gen_prefix cfg rng =
  let roll = Sim.Rng.int rng 100 in
  if roll < 40 then "server."
  else if roll < 60 then Printf.sprintf "server.%d" (Sim.Rng.int rng cfg.n)
  else if roll < 75 then "client."
  else if roll < 90 then "link."
  else ""

let gen_roam cfg rng =
  let at = Sim.Rng.int_in rng 1 cfg.horizon in
  let budget = Int.max 0 (Int.min cfg.roam_max cfg.f) in
  let count = Sim.Rng.int_in rng 0 budget in
  let slots = Array.init cfg.n Fun.id in
  Sim.Rng.shuffle rng slots;
  let assign =
    List.init count (fun i ->
        (slots.(i), Sim.Rng.pick rng Strategy.default_pool))
  in
  (* Slots are distinct (drawn from a shuffle), so ordering by slot alone
     is already a total order on the assignment. *)
  let by_slot (a, _) (b, _) = Int.compare a b in
  Schedule.Roam { at; assign = List.sort by_slot assign }

let gen_window cfg rng =
  let at = Sim.Rng.int_in rng 1 cfg.horizon in
  let duration =
    Sim.Rng.int_in rng (Int.min 50 cfg.window_max) cfg.window_max
  in
  let dir =
    Sim.Rng.pick rng
      [| Schedule.Both; Schedule.To_servers; Schedule.From_servers |]
  in
  if Sim.Rng.int rng 3 = 0 then
    (* directed partition: one server slot unreachable for the window *)
    Schedule.Window
      {
        at;
        duration;
        loss = 1.0;
        dup = 0.0;
        dir;
        server = Some (Sim.Rng.int rng cfg.n);
      }
  else
    let loss = 0.3 +. Sim.Rng.float rng 0.6 in
    let dup = Sim.Rng.float rng 0.5 in
    Schedule.Window { at; duration; loss; dup; dir; server = None }

let gen_crash cfg rng =
  let at = Sim.Rng.int_in rng 1 cfg.horizon in
  let server = Sim.Rng.int rng cfg.n in
  (* Mostly crash-recovery (the interesting transient-by-construction
     case); one in four is crash-stop. *)
  let down_for =
    if cfg.crash_down > 0 && Sim.Rng.int rng 4 > 0 then
      Some (Sim.Rng.int_in rng 1 cfg.crash_down)
    else None
  in
  Schedule.Crash { at; server; down_for }

let generate cfg ~seed =
  let rng = gen_rng seed in
  let injections =
    List.init cfg.injections (fun _ ->
        let at = Sim.Rng.int_in rng 1 cfg.horizon in
        Schedule.Inject { at; prefix = gen_prefix cfg rng })
  in
  let roams = List.init cfg.roams (fun _ -> gen_roam cfg rng) in
  let windows =
    match cfg.medium with
    | Fifo -> []
    | Lossy -> List.init cfg.windows (fun _ -> gen_window cfg rng)
  in
  (* Crashes are drawn last so configs without them ([crashes = 0], every
     pre-existing campaign) consume the generation stream exactly as
     before — committed seeds keep their schedules. *)
  let crashes = List.init cfg.crashes (fun _ -> gen_crash cfg rng) in
  Schedule.sort (injections @ roams @ windows @ crashes)

(* ------------------------------------------------------------------ *)
(* Trial execution                                                    *)

let apply_event scn = function
  | Schedule.Inject { at; prefix } ->
    Sim.Fault.schedule scn.Harness.Scenario.fault
      ~engine:scn.Harness.Scenario.engine ~at:(Sim.Vtime.of_int at) ~prefix
  | Schedule.Roam { at; assign } ->
    Sim.Engine.schedule_at scn.Harness.Scenario.engine (Sim.Vtime.of_int at)
      (fun () ->
        let adv = scn.Harness.Scenario.adversary in
        Byzantine.Adversary.roam adv
          (List.map
             (fun (slot, s) -> (slot, Strategy.to_behavior adv ~slot s))
             assign))
  | Schedule.Window { at; duration; loss; dup; dir; server } ->
    let set ~loss ~dup =
      List.iter
        (fun (_, port) ->
          Registers.Net.set_port_chaos port ~dir ?server ~loss ~dup ())
        (Registers.Net.client_ports scn.Harness.Scenario.net)
    in
    Sim.Engine.schedule_at scn.Harness.Scenario.engine (Sim.Vtime.of_int at)
      (fun () -> set ~loss ~dup);
    let base_loss, base_dup = lossy_base in
    Sim.Engine.schedule_at scn.Harness.Scenario.engine
      (Sim.Vtime.of_int (at + duration))
      (fun () -> set ~loss:base_loss ~dup:base_dup)
  | Schedule.Crash { at; server; down_for } ->
    Harness.Scenario.crash scn ~at ~server ~down_for

(* ------------------------------------------------------------------ *)
(* Segment checking                                                   *)

(* Under the Lossy medium the transports themselves need a beat to
   re-stabilize after corruption, so each segment after a disturbance
   starts a grace period after it; the segment before still ends at the
   disturbance (see Oracles.Stabilization for the rest). *)
let grace = function Fifo -> 0 | Lossy -> 100

let medium_of cfg =
  match cfg.medium with
  | Fifo -> Registers.Net.Reliable_fifo
  | Lossy ->
    let loss, dup = lossy_base in
    Registers.Net.Stabilizing { loss; dup }

let run_trial ?on_scenario cfg ~seed schedule =
  let params =
    Registers.Params.create_unchecked ~n:cfg.n ~f:cfg.f
      ~mode:Registers.Params.Async ()
  in
  let scn =
    Harness.Scenario.create ~seed ~medium:(medium_of cfg) ~params ()
  in
  let adv = scn.Harness.Scenario.adversary in
  List.iter
    (fun (slot, s) ->
      Byzantine.Adversary.compromise adv slot
        (Strategy.to_behavior adv ~slot s))
    cfg.initial;
  let jobs =
    Harness.Workload.deploy scn cfg.family ~writes:cfg.writes ~reads:cfg.reads
      ~read_budget:cfg.read_budget
      ~gap:(Harness.Workload.gap 0 cfg.gap_hi)
      ~tally:(Harness.Workload.tally ())
  in
  List.iter (apply_event scn) schedule;
  Option.iter (fun f -> f scn) on_scenario;
  let stuck = Harness.Scenario.run_jobs scn jobs in
  let h = scn.Harness.Scenario.history in
  let verdict =
    Stab.check ~stuck ~grace:(grace cfg.medium)
      (Stab.condition_of_family cfg.family)
      ~points:(Schedule.disturbance_points schedule)
      h
  in
  {
    verdict;
    ops = Oracles.History.length h;
    duration = Sim.Vtime.to_int (Harness.Scenario.now scn);
    stuck;
  }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                          *)

let partition items n =
  let len = List.length items in
  let arr = Array.of_list items in
  List.init n (fun i ->
      let lo = i * len / n and hi = (i + 1) * len / n in
      Array.to_list (Array.sub arr lo (hi - lo)))
  |> List.filter (fun c -> c <> [])

let complement_of items chunk =
  (* chunks are contiguous slices, so physical-equality filtering works *)
  List.filter (fun e -> not (List.memq e chunk)) items

let shrink ?(log = ignore) cfg ~seed schedule verdict =
  let runs = ref 0 in
  let reproduces sched =
    incr runs;
    Stab.same_kind (run_trial cfg ~seed sched).verdict verdict
  in
  (* Phase 1: ddmin over the event list. *)
  let rec ddmin items n =
    let len = List.length items in
    if len <= 1 then items
    else
      let chunks = partition items n in
      match List.find_opt reproduces chunks with
      | Some c ->
        log (Printf.sprintf "shrink: reduced to %d events" (List.length c));
        ddmin c 2
      | None -> (
        let complements =
          if n = 2 then [] (* complements of halves are the other halves *)
          else List.map (complement_of items) chunks
        in
        match List.find_opt reproduces complements with
        | Some c ->
          log
            (Printf.sprintf "shrink: reduced to %d events" (List.length c));
          ddmin c (Int.max (n - 1) 2)
        | None -> if n < len then ddmin items (Int.min (2 * n) len) else items)
  in
  let minimal =
    if reproduces [] then []
    else ddmin schedule (Int.min 2 (Int.max 1 (List.length schedule)))
  in
  (* Phase 2: halve window durations while the verdict survives. *)
  let rec halve_window sched i =
    match List.nth sched i with
    | Schedule.Window w when w.duration > 1 ->
      let candidate =
        List.mapi
          (fun j e ->
            if j = i then Schedule.Window { w with duration = w.duration / 2 }
            else e)
          sched
      in
      if reproduces candidate then halve_window candidate i else sched
    | _ -> sched
    | exception _ -> sched
  in
  let minimal =
    List.fold_left
      (fun sched i -> halve_window sched i)
      minimal
      (List.init (List.length minimal) Fun.id)
  in
  (* Phase 3: drop individual roam assignments. *)
  let drop_assign sched i =
    match List.nth sched i with
    | Schedule.Roam r when List.length r.assign > 1 ->
      let rec try_drop assign k =
        if k >= List.length assign then assign
        else
          let shorter = List.filteri (fun j _ -> j <> k) assign in
          let candidate =
            List.mapi
              (fun j e ->
                if j = i then Schedule.Roam { r with assign = shorter } else e)
              sched
          in
          if reproduces candidate then try_drop shorter k
          else try_drop assign (k + 1)
      in
      let assign = try_drop r.assign 0 in
      List.mapi
        (fun j e -> if j = i then Schedule.Roam { r with assign } else e)
        sched
    | _ -> sched
    | exception _ -> sched
  in
  let minimal =
    List.fold_left drop_assign minimal
      (List.init (List.length minimal) Fun.id)
  in
  log
    (Printf.sprintf "shrink: %d events -> %d events in %d runs"
       (List.length schedule) (List.length minimal) !runs);
  (minimal, !runs)

(* ------------------------------------------------------------------ *)
(* Repro artifacts                                                    *)

type repro = {
  seed : int;
  config : config;
  schedule : Schedule.t;
  verdict : verdict;
}

let repro_schema = "stabreg/chaos-repro/v1"

(* The decoder rejects everything [run_trial] and [generate] would
   otherwise reject with [Invalid_argument] or an out-of-range slot.
   Exceeding the resilience bound is not an error: campaigns break it on
   purpose.  The crash members postdate the v1 schema; artifacts written
   before them decode with the (inert) defaults. *)
let config_codec () =
  let d = default_config ~family:Regular in
  Obs.Json.(
    record
      (fun family n f medium initial writes reads read_budget gap_hi horizon
           injections roams roam_max windows window_max crashes crash_down ->
        {
          family; n; f; medium; initial; writes; reads; read_budget; gap_hi;
          horizon; injections; roams; roam_max; windows; window_max; crashes;
          crash_down;
        })
    |> field "family" (enum Stab.family_to_string Stab.family_of_string)
         (fun c -> c.family)
    |> field "n" pos (fun c -> c.n)
    |> field "f" nat (fun c -> c.f)
    |> field "medium" (enum medium_to_string medium_of_string) (fun c ->
           c.medium)
    |> field "initial" (list (Schedule.assignment ())) (fun c -> c.initial)
    |> field "writes" nat (fun c -> c.writes)
    |> field "reads" nat (fun c -> c.reads)
    |> field "read_budget" pos (fun c -> c.read_budget)
    |> field "gap_hi" nat (fun c -> c.gap_hi)
    |> field "horizon" pos (fun c -> c.horizon)
    |> field "injections" nat (fun c -> c.injections)
    |> field "roams" nat (fun c -> c.roams)
    |> field "roam_max" nat (fun c -> c.roam_max)
    |> field "windows" nat (fun c -> c.windows)
    |> field "window_max" nat (fun c -> c.window_max)
    |> field "crashes" ~default:d.crashes nat (fun c -> c.crashes)
    |> field "crash_down" ~default:d.crash_down nat (fun c -> c.crash_down)
    |> seal ~check:(fun c ->
           if List.for_all (fun (s, _) -> s >= 0 && s < c.n) c.initial then
             Ok ()
           else Error "config: initial slot out of range"))

let repro_codec () =
  Obs.Json.(
    record (fun seed config schedule verdict ->
        { seed; config; schedule; verdict })
    |> field "seed" int (fun r -> r.seed)
    |> field "config" (config_codec ()) (fun (r : repro) -> r.config)
    |> field "schedule" Schedule.codec (fun r -> r.schedule)
    |> field "verdict" Stab.verdict_codec (fun r -> r.verdict)
    |> seal ~check:(fun r -> Schedule.check ~n:r.config.n r.schedule)
    |> with_schema repro_schema)

let repro_to_json r = Obs.Json.encode (repro_codec ()) r

let repro_of_json j = Obs.Json.decode (repro_codec ()) "repro" j

let replay ?on_scenario r =
  run_trial ?on_scenario r.config ~seed:r.seed r.schedule

(* ------------------------------------------------------------------ *)
(* Campaigns                                                          *)

type trial = {
  index : int;
  trial_seed : int;
  events : int;
  outcome : outcome;
  repro : repro option;
  shrink_runs : int;
}

type result = { config : config; seed : int; trials : trial list }

let violations r =
  List.filter (fun t -> not (Stab.same_kind t.outcome.verdict Clean)) r.trials

let trial_seed_for ~seed i = seed + (1_000_003 * i)

let run ?on_scenario ?(log = ignore) ?(shrink_violations = true) ?recorder
    ?(race_check = false) ?(race_fraction = 1.0) ?(domains = 1) cfg ~seed
    ~trials =
  if domains < 1 then
    invalid_arg "Chaos.Campaign.run: domains must be at least 1";
  if not (race_fraction >= 0.0 && race_fraction <= 1.0) then
    invalid_arg "Chaos.Campaign.run: race_fraction must be in [0,1]";
  (* Flight-recorder accumulators, ticked on completed trials.  Trials
     are noted strictly in index order (the parallel path notes them in
     its post-join, order-preserving fold), so the sample timeline is
     byte-stable regardless of [domains]. *)
  let noted = ref 0
  and viol_count = ref 0
  and event_count = ref 0
  and shrink_count = ref 0
  and last_recorded = ref (-1) in
  let sample () =
    [
      ("trials", Obs.Json.Int !noted);
      ("violations", Obs.Json.Int !viol_count);
      ("events", Obs.Json.Int !event_count);
      ("shrink_runs", Obs.Json.Int !shrink_count);
    ]
  in
  let note t =
    incr noted;
    if not (Stab.same_kind t.outcome.verdict Clean) then incr viol_count;
    event_count := !event_count + t.events;
    shrink_count := !shrink_count + t.shrink_runs;
    match recorder with
    | None -> ()
    | Some r ->
      if Obs.Profile.due r ~tick:!noted then begin
        last_recorded := !noted;
        Obs.Profile.sample r ~tick:!noted sample
      end
  in
  let one ?(attach = true) ~log i =
    let trial_seed = trial_seed_for ~seed i in
    let schedule = generate cfg ~seed:trial_seed in
    let on_scn =
      if attach then Option.map (fun f -> f ~trial:i) on_scenario else None
    in
    let outcome = run_trial ?on_scenario:on_scn cfg ~seed:trial_seed schedule in
    log
      (Format.asprintf "trial %d (seed %d): %d events -> %a" i trial_seed
         (List.length schedule) pp_verdict outcome.verdict);
    match outcome.verdict with
    | Clean ->
      {
        index = i;
        trial_seed;
        events = List.length schedule;
        outcome;
        repro = None;
        shrink_runs = 0;
      }
    | Violation _ ->
      let shrunk, shrink_runs =
        if shrink_violations then
          shrink ~log cfg ~seed:trial_seed schedule outcome.verdict
        else (schedule, 0)
      in
      (* re-execute the minimal schedule so the artifact records its own
         exact verdict, not the pre-shrink one *)
      let final = run_trial cfg ~seed:trial_seed shrunk in
      let repro =
        {
          seed = trial_seed;
          config = cfg;
          schedule = shrunk;
          verdict = final.verdict;
        }
      in
      {
        index = i;
        trial_seed;
        events = List.length schedule;
        outcome;
        repro = Some repro;
        shrink_runs = shrink_runs + 1;
      }
  in
  let trials_list =
    if domains = 1 && not race_check then
      List.init trials (fun i ->
          let t = one ~log i in
          note t;
          t)
    else begin
      (* Each trial is already independent and deterministic in its own
         derived seed, so fanning trials across domains changes nothing
         about their outcomes — only wall-clock.  Trial state (scenario,
         engine, hub) is constructed inside the trial, so nothing is
         shared between domains except the config and the callbacks.
         [log] lines are buffered per trial and replayed in trial order
         after the join, so the observable stream is identical to the
         sequential one. *)
      let buffered ~attach i =
        let buf = Buffer.create 256 in
        let log line =
          Buffer.add_string buf line;
          Buffer.add_char buf '\n'
        in
        let t = one ~attach ~log i in
        (t, Buffer.contents buf)
      in
      let indices = List.init trials Fun.id in
      let outcomes =
        if race_check then
          (* The second pass must not re-attach caller sinks
             ([on_scenario] wires tracing to trial 0, and sinks are
             single-run); recording never perturbs a trial — a repo
             invariant pinned by the tracing tests — so verdicts, event
             counts and log bytes must still be bit-identical.
             [race_fraction] bounds the second pass to a deterministic
             seed-derived subset of the trials, so soak-sized campaigns
             don't pay double wall-clock for the harness. *)
          Parallel.Pool.map_checked ~domains ~check_fraction:race_fraction
            ~check_seed:seed
            ~recheck:(buffered ~attach:false)
            (fun i -> buffered ~attach:true i)
            indices
        else Parallel.Pool.map ~domains (fun i -> buffered ~attach:true i) indices
      in
      List.map
        (fun (t, lines) ->
          String.split_on_char '\n' lines
          |> List.iter (fun l -> if l <> "" then log l);
          note t;
          t)
        outcomes
    end
  in
  (match recorder with
  | None -> ()
  | Some r ->
    if domains > 1 then begin
      (* Pool.map assigns items round-robin before any domain starts
         (item [i] runs on domain [i mod domains]), so the per-domain
         split is reconstructible after the join. *)
      let per_domain =
        List.init domains (fun d ->
            let mine =
              List.filter (fun t -> t.index mod domains = d) trials_list
            in
            let viols =
              List.length
                (List.filter
                   (fun t -> not (Stab.same_kind t.outcome.verdict Clean))
                   mine)
            in
            Obs.Json.Obj
              [
                ("domain", Obs.Json.Int d);
                ("trials", Obs.Json.Int (List.length mine));
                ( "events",
                  Obs.Json.Int
                    (List.fold_left (fun a t -> a + t.events) 0 mine) );
                ("violations", Obs.Json.Int viols);
              ])
      in
      Obs.Profile.add_section r "domains" (Obs.Json.List per_domain)
    end;
    if !last_recorded <> !noted then
      Obs.Profile.sample ~force:true r ~tick:!noted sample);
  { config = cfg; seed; trials = trials_list }
