(* Crash-recovery bursts with a stabilization-time oracle.

   A recovery run crashes a rotating subset of server slots in periodic
   bursts, each slot rejoining after a fixed down window over arbitrary
   state (a transient fault by construction), while a writer/reader pair
   keeps operating through the typed-outcome API.  The oracle measures,
   per burst, the virtual time from the recovery instant to the first
   read certified correct by the regularity checker on that segment
   (Oracles.Stabilization.time). *)

type config = {
  n : int;
  f : int;
  bursts : int;
  crashed : int;
  down_for : int;
  first_at : int;
  gap : int;
  writes : int;
  reads : int;
  read_budget : int;
  gap_hi : int;
  retry : bool;
}

let default_config =
  {
    n = 9;
    f = 1;
    bursts = 3;
    crashed = 2;
    down_for = 120;
    first_at = 150;
    gap = 500;
    writes = 60;
    reads = 70;
    read_budget = 48;
    gap_hi = 10;
    retry = true;
  }

let burst_at cfg b = cfg.first_at + (b * cfg.gap)

let schedule cfg =
  List.concat
    (List.init cfg.bursts (fun b ->
         let at = burst_at cfg b in
         List.init cfg.crashed (fun j ->
             Schedule.Crash
               {
                 at;
                 server = ((b * cfg.crashed) + j) mod cfg.n;
                 down_for = Some cfg.down_for;
               })))
  |> Schedule.sort

type burst_report = {
  burst : int;
  crash_at : int;
  recovery_at : int;
  stab_time : int option;
      (* vtime from recovery to the first certified-correct read in the
         burst's segment; [None] when none landed before the next burst *)
}

type report = {
  seed : int;
  config : config;
  bursts : burst_report list;
  write_ops : Registers.Outcome.tally;
  read_ops : Registers.Outcome.tally;
  duration : int;
  stuck : string list;
  converged : bool;
}

let run ?on_scenario cfg ~seed =
  let params =
    Registers.Params.create_unchecked
      ~retry:
        (if cfg.retry then Registers.Params.default_retry
         else Registers.Params.paper_wait)
      ~n:cfg.n ~f:cfg.f ~mode:Registers.Params.Async ()
  in
  let scn = Harness.Scenario.create ~seed ~params () in
  let events = schedule cfg in
  List.iter (Campaign.apply_event scn) events;
  Option.iter (fun f -> f scn) on_scenario;
  let net = scn.Harness.Scenario.net in
  let w = Registers.Swsr_regular.writer ~net ~client_id:100 ~inst:0 in
  let r = Registers.Swsr_regular.reader ~net ~client_id:101 ~inst:0 in
  Harness.Scenario.register_port scn (Registers.Swsr_regular.writer_port w);
  Harness.Scenario.register_port scn (Registers.Swsr_regular.reader_port r);
  let metrics = Harness.Scenario.metrics scn in
  let h = scn.Harness.Scenario.history in
  let write_ops = ref Registers.Outcome.zero_tally
  and read_ops = ref Registers.Outcome.zero_tally in
  let g = Harness.Workload.gap 0 cfg.gap_hi in
  let writer_job () =
    let rng = Harness.Scenario.split_rng scn in
    for k = 1 to cfg.writes do
      let v = Registers.Value.int k in
      let inv = Harness.Scenario.now scn in
      let o = Registers.Swsr_regular.write w v in
      let resp = Harness.Scenario.now scn in
      (* Even a degraded write reached a read quorum of servers, so the
         oracle must treat it as a write that may be read. *)
      Oracles.History.record h ~proc:"writer" ~kind:Oracles.History.Write ~inv
        ~resp v;
      write_ops := Registers.Outcome.bump !write_ops o ~count:1;
      Obs.Metrics.incr metrics ("recovery.write." ^ Registers.Outcome.kind o);
      if g.Harness.Workload.hi > 0 then
        Harness.Scenario.sleep scn
          (Sim.Rng.int_in rng g.Harness.Workload.lo g.Harness.Workload.hi)
    done
  in
  let reader_job () =
    let rng = Harness.Scenario.split_rng scn in
    for _ = 1 to cfg.reads do
      let inv = Harness.Scenario.now scn in
      let o =
        Registers.Swsr_regular.read ~max_iterations:cfg.read_budget r
      in
      let resp = Harness.Scenario.now scn in
      (match o with
      | Registers.Outcome.Ok v ->
        Oracles.History.record h ~proc:"reader" ~kind:Oracles.History.Read
          ~inv ~resp v
      | Registers.Outcome.Degraded _ | Registers.Outcome.Timed_out _ ->
        Oracles.History.record h ~proc:"reader" ~kind:Oracles.History.Read
          ~inv ~resp ~ok:false Registers.Value.bot);
      read_ops := Registers.Outcome.bump !read_ops o ~count:1;
      Obs.Metrics.incr metrics ("recovery.read." ^ Registers.Outcome.kind o);
      if g.Harness.Workload.hi > 0 then
        Harness.Scenario.sleep scn
          (Sim.Rng.int_in rng g.Harness.Workload.lo g.Harness.Workload.hi)
    done
  in
  let handles =
    [
      ("writer", Sim.Fiber.spawn ~name:"writer" writer_job);
      ("reader", Sim.Fiber.spawn ~name:"reader" reader_job);
    ]
  in
  Harness.Scenario.run scn;
  let stuck = Harness.Scenario.stuck_jobs handles in
  let bursts =
    List.init cfg.bursts (fun b ->
        let crash_at = burst_at cfg b in
        let recovery_at = crash_at + cfg.down_for in
        let hi =
          if b + 1 < cfg.bursts then burst_at cfg (b + 1) else max_int
        in
        let stab_time = Oracles.Stabilization.time h ~lo:recovery_at ~hi in
        Option.iter
          (fun s ->
            Obs.Metrics.observe_named metrics "recovery.stab_time"
              (float_of_int s))
          stab_time;
        { burst = b; crash_at; recovery_at; stab_time })
  in
  let converged =
    match List.rev bursts with
    | last :: _ -> last.stab_time <> None
    | [] -> false
  in
  {
    seed;
    config = cfg;
    bursts;
    write_ops = !write_ops;
    read_ops = !read_ops;
    duration = Sim.Vtime.to_int (Harness.Scenario.now scn);
    stuck;
    converged;
  }

(* ------------------------------------------------------------------ *)
(* Artifacts                                                          *)

let schema = "stabreg/recovery/v1"

let config_to_json c =
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int c.n);
      ("f", Obs.Json.Int c.f);
      ("bursts", Obs.Json.Int c.bursts);
      ("crashed", Obs.Json.Int c.crashed);
      ("down_for", Obs.Json.Int c.down_for);
      ("first_at", Obs.Json.Int c.first_at);
      ("gap", Obs.Json.Int c.gap);
      ("writes", Obs.Json.Int c.writes);
      ("reads", Obs.Json.Int c.reads);
      ("read_budget", Obs.Json.Int c.read_budget);
      ("gap_hi", Obs.Json.Int c.gap_hi);
      ("retry", Obs.Json.Bool c.retry);
    ]

let burst_to_json b =
  Obs.Json.Obj
    [
      ("burst", Obs.Json.Int b.burst);
      ("crash_at", Obs.Json.Int b.crash_at);
      ("recovery_at", Obs.Json.Int b.recovery_at);
      ( "stab_time",
        match b.stab_time with
        | Some s -> Obs.Json.Int s
        | None -> Obs.Json.Null );
    ]

let to_json r =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str schema);
      ("seed", Obs.Json.Int r.seed);
      ("config", config_to_json r.config);
      ("schedule", Schedule.to_json (schedule r.config));
      ("bursts", Obs.Json.List (List.map burst_to_json r.bursts));
      ("write_ops", Registers.Outcome.tally_to_json r.write_ops);
      ("read_ops", Registers.Outcome.tally_to_json r.read_ops);
      ("duration", Obs.Json.Int r.duration);
      ("stuck", Obs.Json.List (List.map (fun s -> Obs.Json.Str s) r.stuck));
      ("converged", Obs.Json.Bool r.converged);
    ]

(* Everything [run] would otherwise reject with [Invalid_argument];
   more crashed slots than [f] is allowed (an over-bound burst). *)
let check_config (c : config) =
  let bad fmt = Printf.ksprintf (fun s -> Error ("config: " ^ s)) fmt in
  let counts =
    [
      ("bursts", c.bursts); ("crashed", c.crashed); ("first_at", c.first_at);
      ("gap", c.gap); ("writes", c.writes); ("reads", c.reads);
      ("gap_hi", c.gap_hi);
    ]
  in
  if c.n <= 0 then bad "n must be positive"
  else if c.f < 0 then bad "f must be non-negative"
  else if c.down_for <= 0 then bad "down_for must be positive"
  else if c.read_budget <= 0 then bad "read_budget must be positive"
  else
    match List.find_opt (fun (_, v) -> v < 0) counts with
    | Some (key, _) -> bad "%s must be non-negative" key
    | None -> Ok ()

let config_of_json j =
  let open Obs.Json in
  let ctx = "config" in
  let* n = int_field ctx "n" j in
  let* f = int_field ctx "f" j in
  let* bursts = int_field ctx "bursts" j in
  let* crashed = int_field ctx "crashed" j in
  let* down_for = int_field ctx "down_for" j in
  let* first_at = int_field ctx "first_at" j in
  let* gap = int_field ctx "gap" j in
  let* writes = int_field ctx "writes" j in
  let* reads = int_field ctx "reads" j in
  let* read_budget = int_field ctx "read_budget" j in
  let* gap_hi = int_field ctx "gap_hi" j in
  let* retry = bool_field ctx "retry" j in
  let c =
    {
      n;
      f;
      bursts;
      crashed;
      down_for;
      first_at;
      gap;
      writes;
      reads;
      read_budget;
      gap_hi;
      retry;
    }
  in
  let* () = check_config c in
  Ok c

let burst_of_json ctx j =
  let open Obs.Json in
  let* burst = int_field ctx "burst" j in
  let* crash_at = int_field ctx "crash_at" j in
  let* recovery_at = int_field ctx "recovery_at" j in
  let* stab_time = opt_field ctx "stab_time" as_int j in
  Ok { burst; crash_at; recovery_at; stab_time }

let of_json j =
  let open Obs.Json in
  let ctx = "recovery" in
  let* () = expect_schema ctx schema j in
  let* seed = int_field ctx "seed" j in
  let* config = field ctx "config" j in
  let* config = config_of_json config in
  let* bursts = list_field ctx "bursts" burst_of_json j in
  let* write_ops = field ctx "write_ops" j in
  let* write_ops =
    Registers.Outcome.tally_of_json (ctx ^ ".write_ops") write_ops
  in
  let* read_ops = field ctx "read_ops" j in
  let* read_ops =
    Registers.Outcome.tally_of_json (ctx ^ ".read_ops") read_ops
  in
  let* duration = int_field ctx "duration" j in
  let* stuck = list_field ctx "stuck" as_string j in
  let* converged = bool_field ctx "converged" j in
  Ok { seed; config; bursts; write_ops; read_ops; duration; stuck; converged }

let replay ?on_scenario r = run ?on_scenario r.config ~seed:r.seed

let matches a b =
  a.seed = b.seed && a.config = b.config && a.bursts = b.bursts
  && a.write_ops = b.write_ops && a.read_ops = b.read_ops
  && a.duration = b.duration && a.stuck = b.stuck
  && a.converged = b.converged

let pp_burst fmt b =
  match b.stab_time with
  | Some s ->
    Format.fprintf fmt "burst %d: crash @%d, recover @%d, stabilized +%d"
      b.burst b.crash_at b.recovery_at s
  | None ->
    Format.fprintf fmt
      "burst %d: crash @%d, recover @%d, no certified read before next burst"
      b.burst b.crash_at b.recovery_at
