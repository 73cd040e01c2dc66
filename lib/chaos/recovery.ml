(* Crash-recovery bursts with a stabilization-time oracle.

   A recovery run crashes a rotating subset of server slots in periodic
   bursts, each slot rejoining after a fixed down window over arbitrary
   state (a transient fault by construction), while a writer/reader pair
   keeps operating through the typed-outcome API.  The pair is the
   regular family of Harness.Workload.deploy and the crashes go through
   Harness.Scenario.crash, as in a chaos trial.  The oracle measures,
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
  let tally = Harness.Workload.tally () in
  let jobs =
    Harness.Workload.deploy scn Campaign.Regular ~writes:cfg.writes
      ~reads:cfg.reads ~read_budget:cfg.read_budget
      ~gap:(Harness.Workload.gap 0 cfg.gap_hi)
      ~tally
  in
  (* The reader's fiber starts first, as it did when the committed
     recovery artifacts were recorded. *)
  let handles =
    List.rev_map
      (fun (name, f) -> (name, Sim.Fiber.spawn ~name f))
      (List.rev jobs)
  in
  Harness.Scenario.run scn;
  let stuck = Harness.Scenario.stuck_jobs handles in
  let metrics = Harness.Scenario.metrics scn in
  List.iter
    (fun (op, (t : Registers.Outcome.tally)) ->
      List.iter
        (fun (kind, n) ->
          if n > 0 then
            Obs.Metrics.add metrics (Printf.sprintf "recovery.%s.%s" op kind) n)
        [ ("ok", t.ok); ("degraded", t.degraded); ("timeout", t.timed_out) ])
    [ ("write", tally.writes); ("read", tally.reads) ];
  let h = scn.Harness.Scenario.history in
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
    write_ops = tally.writes;
    read_ops = tally.reads;
    duration = Sim.Vtime.to_int (Harness.Scenario.now scn);
    stuck;
    converged;
  }

(* ------------------------------------------------------------------ *)
(* Artifacts                                                          *)

let schema = "stabreg/recovery/v1"

(* The decoder rejects everything [run] would otherwise reject with
   [Invalid_argument]; more crashed slots than [f] is allowed (an
   over-bound burst). *)
let config_codec () =
  Obs.Json.(
    record
      (fun n f bursts crashed down_for first_at gap writes reads read_budget
           gap_hi retry ->
        {
          n; f; bursts; crashed; down_for; first_at; gap; writes; reads;
          read_budget; gap_hi; retry;
        })
    |> field "n" pos (fun c -> c.n)
    |> field "f" nat (fun c -> c.f)
    |> field "bursts" nat (fun (c : config) -> c.bursts)
    |> field "crashed" nat (fun c -> c.crashed)
    |> field "down_for" pos (fun c -> c.down_for)
    |> field "first_at" nat (fun c -> c.first_at)
    |> field "gap" nat (fun c -> c.gap)
    |> field "writes" nat (fun c -> c.writes)
    |> field "reads" nat (fun c -> c.reads)
    |> field "read_budget" pos (fun c -> c.read_budget)
    |> field "gap_hi" nat (fun c -> c.gap_hi)
    |> field "retry" bool (fun c -> c.retry)
    |> seal)

let burst_codec () =
  Obs.Json.(
    record (fun burst crash_at recovery_at stab_time ->
        { burst; crash_at; recovery_at; stab_time })
    |> field "burst" int (fun b -> b.burst)
    |> field "crash_at" int (fun b -> b.crash_at)
    |> field "recovery_at" int (fun b -> b.recovery_at)
    |> field "stab_time" (nullable int) (fun b -> b.stab_time)
    |> seal)

let codec () =
  let tally = Registers.Outcome.tally_codec () in
  Obs.Json.(
    record
      (fun seed config bursts write_ops read_ops duration stuck converged ->
        {
          seed; config; bursts; write_ops; read_ops; duration; stuck;
          converged;
        })
    |> field "seed" int (fun r -> r.seed)
    |> field "config" (config_codec ()) (fun r -> r.config)
    |> derived "schedule" Schedule.codec (fun r -> schedule r.config)
    |> field "bursts" (list (burst_codec ())) (fun r -> r.bursts)
    |> field "write_ops" tally (fun r -> r.write_ops)
    |> field "read_ops" tally (fun r -> r.read_ops)
    |> field "duration" int (fun r -> r.duration)
    |> field "stuck" (list string) (fun r -> r.stuck)
    |> field "converged" bool (fun r -> r.converged)
    |> seal |> with_schema schema)

let to_json r = Obs.Json.encode (codec ()) r

let of_json j = Obs.Json.decode (codec ()) "recovery" j

let replay ?on_scenario r = run ?on_scenario r.config ~seed:r.seed

let matches a b = Obs.Json.equal (to_json a) (to_json b)

let pp_burst fmt b =
  match b.stab_time with
  | Some s ->
    Format.fprintf fmt "burst %d: crash @%d, recover @%d, stabilized +%d"
      b.burst b.crash_at b.recovery_at s
  | None ->
    Format.fprintf fmt
      "burst %d: crash @%d, recover @%d, no certified read before next burst"
      b.burst b.crash_at b.recovery_at
