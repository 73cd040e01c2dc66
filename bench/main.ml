(* Benchmark harness (Bechamel): the quantitative companion to experiment
   E9.  Each benchmark measures one simulated operation (or one primitive)
   end-to-end through the engine, over a persistent deployment, so the
   numbers compare register classes and system sizes on equal footing.

     dune exec bench/main.exe
*)

open Bechamel
open Toolkit
open Registers

(* A persistent deployment; each staged run drives one (or a few)
   operations through the live engine. *)
let full_deployment ?(n = 9) ?(f = 1) ?(mode = Params.Async) ?medium ?retry
    () =
  let params = Params.create_unchecked ?retry ~n ~f ~mode () in
  let rng = Sim.Rng.create 99 in
  let engine = Sim.Engine.create ~rng:(Sim.Rng.split rng) () in
  let lo, hi =
    match mode with
    | Params.Async -> (1, 10)
    | Params.Sync { max_delay; _ } -> (1, max_delay)
  in
  let net =
    Net.create ~engine ~params ?medium
      ~link_delay:(fun rng -> Sim.Link.uniform rng ~lo ~hi)
      ()
  in
  let adversary = Byzantine.Adversary.deploy ~net ~rng:(Sim.Rng.split rng) in
  (engine, net, adversary)

let deployment ?n ?f ?mode ?medium ?retry () =
  let engine, net, _ = full_deployment ?n ?f ?mode ?medium ?retry () in
  (engine, net)

let run_op engine f =
  let h = Sim.Fiber.spawn f in
  Sim.Engine.run engine;
  match Sim.Fiber.status h with
  | Sim.Fiber.Done -> ()
  | Sim.Fiber.Running | Sim.Fiber.Failed _ -> failwith "bench op wedged"

(* --- primitives --- *)

let bench_seqnum =
  let counter = ref 0 in
  Test.make ~name:"seqnum: succ + gt_cd"
    (Staged.stage (fun () ->
         counter := Seqnum.succ ~modulus:Seqnum.default_modulus !counter;
         ignore (Seqnum.gt_cd ~modulus:Seqnum.default_modulus !counter 12345)))

let bench_epoch =
  let rng = Sim.Rng.create 5 in
  let pool = Array.init 64 (fun _ -> Epoch.arbitrary rng ~k:4) in
  let i = ref 0 in
  Test.make ~name:"epoch: next_epoch + max_epoch (k=4)"
    (Staged.stage (fun () ->
         i := (!i + 1) mod 60;
         let es = [ pool.(!i); pool.(!i + 1); pool.(!i + 2); pool.(!i + 3) ] in
         ignore (Epoch.max_epoch es);
         ignore (Epoch.next_epoch ~k:4 es)))

let bench_quorum =
  let rng = Sim.Rng.create 6 in
  let cells =
    List.init 17 (fun _ -> Messages.arbitrary_cell rng)
    @ List.init 5 (fun _ -> { Messages.sn = 1; v = Value.int 1 })
  in
  Test.make ~name:"quorum: find among 22 acks"
    (Staged.stage (fun () -> ignore (Quorum.find_cell ~threshold:5 cells)))

(* --- registers: one write + one read per run --- *)

let bench_register ~name mk =
  let op = mk () in
  Test.make ~name (Staged.stage op)

let swsr_regular_ops ?(n = 9) ?(f = 1) () () =
  let engine, net = deployment ~n ~f () in
  let w = Swsr_regular.writer ~net ~client_id:1 ~inst:0 in
  let r = Swsr_regular.reader ~net ~client_id:2 ~inst:0 in
  let k = ref 0 in
  fun () ->
    incr k;
    run_op engine (fun () ->
        ignore (Swsr_regular.write w (Value.int !k));
        ignore (Swsr_regular.read r))

let swsr_atomic_ops ?(n = 9) ?(f = 1) ?(mode = Params.Async) ?medium () () =
  let engine, net = deployment ~n ~f ~mode ?medium () in
  let w = Swsr_atomic.writer ~net ~client_id:1 ~inst:0 () in
  let r = Swsr_atomic.reader ~net ~client_id:2 ~inst:0 () in
  let k = ref 0 in
  fun () ->
    incr k;
    run_op engine (fun () ->
        ignore (Swsr_atomic.write w (Value.int !k));
        ignore (Swsr_atomic.read r))

(* The deadline/health layer with no faults: every first attempt
   completes, so the ns/op delta against the plain swsr-regular row is
   the whole overhead of deadline-armed waits plus health bookkeeping. *)
let swsr_regular_retry_ops ?(n = 9) ?(f = 1) () () =
  let engine, net = deployment ~retry:Params.default_retry ~n ~f () in
  let w = Swsr_regular.writer ~net ~client_id:1 ~inst:0 in
  let r = Swsr_regular.reader ~net ~client_id:2 ~inst:0 in
  let k = ref 0 in
  fun () ->
    incr k;
    run_op engine (fun () ->
        (match Swsr_regular.write w (Value.int !k) with
        | Outcome.Ok () -> ()
        | Outcome.Degraded _ | Outcome.Timed_out _ ->
          failwith "no-fault bench degraded");
        ignore (Swsr_regular.read r))

(* The degraded path itself: 4 of 9 slots crashed (beyond the f = 1
   bound), so every write burns the full retry budget and reports
   Degraded.  The row is the op latency a client pays for graceful
   degradation instead of a hang. *)
let swsr_regular_degraded_ops ?(n = 9) ?(f = 1) () () =
  let engine, net, adversary =
    full_deployment ~retry:Params.default_retry ~n ~f ()
  in
  for i = 0 to 3 do
    Byzantine.Adversary.crash adversary i
  done;
  let w = Swsr_regular.writer ~net ~client_id:1 ~inst:0 in
  let k = ref 0 in
  fun () ->
    incr k;
    run_op engine (fun () ->
        match Swsr_regular.write w (Value.int !k) with
        | Outcome.Degraded _ -> ()
        | Outcome.Ok () | Outcome.Timed_out _ ->
          failwith "crash-burst bench expected Degraded")

let swmr_ops () =
  let engine, net = deployment () in
  let w = Swmr.writer ~net ~client_id:1 ~base_inst:0 ~readers:3 () in
  let r = Swmr.reader ~net ~client_id:2 ~base_inst:0 ~reader_index:0 () in
  let k = ref 0 in
  fun () ->
    incr k;
    run_op engine (fun () ->
        ignore (Swmr.write w (Value.int !k));
        ignore (Swmr.read r))

let swmr_wb_ops () =
  let engine, net = deployment () in
  let w = Swmr_wb.writer ~net ~client_id:1 ~base_inst:0 ~readers:3 () in
  let r = Swmr_wb.reader ~net ~client_id:2 ~base_inst:0 ~reader_index:0 ~readers:3 () in
  let k = ref 0 in
  fun () ->
    incr k;
    run_op engine (fun () ->
        ignore (Swmr_wb.write w (Value.int !k));
        ignore (Swmr_wb.read r))

let kv_ops () =
  let engine, net = deployment () in
  let cfg = Kv.Store.config ~keys:[ "a"; "b" ] ~clients:2 in
  let s0 = Kv.Store.client ~net ~cfg ~id:0 ~client_id:1 in
  let s1 = Kv.Store.client ~net ~cfg ~id:1 ~client_id:2 in
  let k = ref 0 in
  fun () ->
    incr k;
    run_op engine (fun () ->
        ignore (Kv.Store.set_o s0 ~key:"a" (Value.int !k));
        ignore (Kv.Store.get_o s1 ~key:"a"))

let mwmr_ops () =
  let engine, net = deployment () in
  let cfg = Mwmr.default_config ~m:3 in
  let p0 = Mwmr.process ~net ~cfg ~id:0 ~client_id:1 in
  let p1 = Mwmr.process ~net ~cfg ~id:1 ~client_id:2 in
  let k = ref 0 in
  fun () ->
    incr k;
    run_op engine (fun () ->
        ignore (Mwmr.write p0 (Value.int !k));
        ignore (Mwmr.read p1))

(* --- oracles --- *)

let bench_checker =
  let h = Oracles.History.create () in
  for i = 1 to 100 do
    Oracles.History.record h ~proc:"w" ~kind:Oracles.History.Write
      ~inv:(Sim.Vtime.of_int (i * 20))
      ~resp:(Sim.Vtime.of_int ((i * 20) + 10))
      (Value.int i);
    Oracles.History.record h ~proc:"r" ~kind:Oracles.History.Read
      ~inv:(Sim.Vtime.of_int ((i * 20) + 11))
      ~resp:(Sim.Vtime.of_int ((i * 20) + 19))
      (Value.int i)
  done;
  Test.make ~name:"oracle: atomicity check, 200-op history"
    (Staged.stage (fun () -> ignore (Oracles.Atomicity.Sw.check h)))

(* --- model checker --- *)

(* The exhaustive tiny configuration from the mc test suite: small enough
   that one full search fits a staged run, so the ns/op row tracks the
   end-to-end cost of an exhaustive verification. *)
let mc_tiny_cfg =
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

let bench_mc_exhaustive =
  Test.make ~name:"mc: exhaustive search (regular, n=3, t=0)"
    (Staged.stage (fun () -> ignore (Mc.Checker.search mc_tiny_cfg)))

(* Explorer throughput: states expanded per second and the peak size of
   the canonicalized visited set.  These are one-shot measurements (a
   bounded search is too slow for a staged run and its cost is dominated
   by replayed prefixes anyway), reported alongside the bechamel rows. *)
let mc_throughput_rows () =
  let measure name ?budgets cfg =
    let t0 = Sys.time () in
    let o = Mc.Checker.search ?budgets cfg in
    let dt = Sys.time () -. t0 in
    let s = o.Mc.Checker.stats in
    ( name,
      s.Mc.Checker.states,
      s.Mc.Checker.peak_visited,
      dt,
      float_of_int s.Mc.Checker.states /. dt,
      o.Mc.Checker.exhaustive,
      s.Mc.Checker.replays,
      float_of_int s.Mc.Checker.replays /. float_of_int (max 1 s.Mc.Checker.states)
    )
  in
  [
    measure "mc: regular n=3 t=0 (exhaustive)" mc_tiny_cfg;
    measure "mc: regular n=4 t=1, 1 silent byz (10k-state budget)"
      ~budgets:{ Mc.Checker.max_states = 10_000; max_depth = 10_000 }
      {
        mc_tiny_cfg with
        Mc.Config.n = 4;
        f = 1;
        byz = [ (0, Mc.Config.Silent) ];
        read_budget = 8;
      };
  ]

(* Cooperative frontier scaling: the same exhaustive search run by K
   domains sharing one work-stealing frontier and one sharded visited
   set.  [unique] is the visited-set size (the honest coverage metric —
   the old portfolio summed K overlapping per-slice tables here);
   [redundancy_ratio] is expanded states at K domains over the
   sequential searcher's expansions on the same config: ~1.0 for the
   frontier, where the portfolio paid ~K by re-exploring the same space
   per slice.  Wall-clock (not [Sys.time], which sums CPU across
   domains) is the throughput denominator; cpu/wall utilization is
   reported per row so single-core containers are legible as such. *)
type mc_parallel_row = {
  row_name : string;
  row_domains : int;
  row_states : int;  (** expanded, including frontier replays *)
  row_unique : int;  (** visited-set size: distinct states explored *)
  row_redundancy : float;  (** expanded / sequential expanded *)
  row_seconds : float;
  row_cpu_seconds : float;
  row_utilization : float;  (** cpu_seconds / seconds *)
  row_unique_per_sec : float;
  row_exhaustive : bool;
}

let mc_parallel_measure ~name ?budgets ?target ~baseline_states cfg domains =
  let c0 = Sys.time () in
  let t0 = Unix.gettimeofday () in
  let o = Mc.Checker.search_parallel ?budgets ?target ~domains cfg in
  let dt = Unix.gettimeofday () -. t0 in
  let cpu = Sys.time () -. c0 in
  let s = o.Mc.Checker.stats in
  let states = s.Mc.Checker.states in
  let unique = s.Mc.Checker.peak_visited in
  {
    row_name = Printf.sprintf "%s, %d domain(s)" name domains;
    row_domains = domains;
    row_states = states;
    row_unique = unique;
    row_redundancy = float_of_int states /. float_of_int (max 1 baseline_states);
    row_seconds = dt;
    row_cpu_seconds = cpu;
    row_utilization = cpu /. Float.max dt 1e-9;
    row_unique_per_sec = float_of_int unique /. Float.max dt 1e-9;
    row_exhaustive = o.Mc.Checker.exhaustive;
  }

let mc_parallel_rows () =
  let baseline_states =
    (Mc.Checker.search mc_tiny_cfg).Mc.Checker.stats.Mc.Checker.states
  in
  List.map
    (fun domains ->
      mc_parallel_measure ~name:"mc-frontier: regular n=3 t=0"
        ~baseline_states mc_tiny_cfg domains)
    [ 1; 2; 4 ]

(* The soak row: the first exhaustive *multi-Byzantine* n=4
   configuration — two silent servers against t=1, every interleaving
   checked for an inversion (the `--target` filter keeps the search
   walking past the ubiquitous stuck terminals, so exhaustiveness is
   meaningful).  One-shot at 4 domains — this is the CI-soak-budget
   witness recorded in BENCH_6.json. *)
let mc_soak_row () =
  let cfg =
    {
      mc_tiny_cfg with
      Mc.Config.n = 4;
      f = 1;
      byz = [ (0, Mc.Config.Silent); (1, Mc.Config.Silent) ];
      read_budget = 8;
    }
  in
  let baseline_states =
    (Mc.Checker.search ~target:"inversion" cfg).Mc.Checker.stats
      .Mc.Checker.states
  in
  mc_parallel_measure
    ~name:"mc-frontier: regular n=4 t=1, 2 silent byz, target=inversion"
    ~target:"inversion" ~baseline_states cfg
    4

(* Campaign throughput: randomized trials per second through the full
   deploy/schedule/check pipeline, fanned over 2 domains. *)
let chaos_row () =
  let cfg =
    { (Chaos.Campaign.default_config ~family:Chaos.Campaign.Regular) with
      Chaos.Campaign.writes = 20;
      reads = 15;
    }
  in
  let trials = 4 and domains = 2 in
  let t0 = Unix.gettimeofday () in
  let r = Chaos.Campaign.run ~domains cfg ~seed:99 ~trials in
  let dt = Unix.gettimeofday () -. t0 in
  let ops =
    List.fold_left
      (fun acc (t : Chaos.Campaign.trial) ->
        acc + t.outcome.Chaos.Campaign.ops)
      0 r.Chaos.Campaign.trials
  in
  ( Printf.sprintf "chaos: regular campaign, %d trials, %d domain(s)" trials
      domains,
    trials,
    domains,
    ops,
    dt,
    float_of_int trials /. dt )

(* Sharded-tier throughput: the full open-loop Zipfian workload routed
   through S independent n=9 deployments, one-shot wall-clock rows (a
   whole run is far too big for a staged bechamel measurement).  Logical
   ops per second — the router coalesces queued ops per key, so one
   register op can retire many logical ones; [register_ops] exposes the
   coalescing ratio. *)
let shard_rows () =
  List.map
    (fun shards ->
      let cfg = { Shard.Tier.default_config with Shard.Tier.shards } in
      let t0 = Unix.gettimeofday () in
      let r = Shard.Tier.run cfg ~seed:99 in
      let dt = Unix.gettimeofday () -. t0 in
      let reg_ops =
        List.fold_left
          (fun acc (s : Shard.Tier.shard_report) ->
            acc + s.Shard.Tier.register_writes + s.Shard.Tier.register_reads)
          0 r.Shard.Tier.shards
      in
      ( Printf.sprintf "shard: zipfian set+get (S=%d, n=9)" shards,
        shards,
        r.Shard.Tier.ops,
        reg_ops,
        r.Shard.Tier.duration,
        dt,
        float_of_int r.Shard.Tier.ops /. dt,
        r.Shard.Tier.clean ))
    [ 1; 2; 4; 8 ]

(* Static-analysis throughput: one full stablint scan of the repo tree
   (parse + rules + escape analysis + inventory), wall-clock.  Run from
   the repo root by `dune exec bench/main.exe`; when the tree is not
   there (e.g. an installed binary) the row degrades to zero files. *)
let lint_row () =
  let paths = [ "lib"; "bin"; "test"; "examples" ] in
  let t0 = Unix.gettimeofday () in
  let s = Lint.Driver.scan ~root:"." ~paths () in
  let dt = Unix.gettimeofday () -. t0 in
  ( Printf.sprintf "lint: full scan, %d rules" (List.length Lint.Rules.all),
    List.length Lint.Rules.all,
    s.Lint.Driver.files_scanned,
    List.length s.Lint.Driver.findings,
    List.length s.Lint.Driver.inventory,
    dt )

(* --- data link --- *)

let altbit_ops () =
  let s =
    Datalink.Alt_bit.create ~rng:(Sim.Rng.create 77) ~cap:4 ~loss:0.2
      ~dup:0.1 ()
  in
  let k = ref 0 in
  fun () ->
    incr k;
    (match Datalink.Alt_bit.send s !k with Ok () -> () | Error e -> failwith e);
    ignore (Datalink.Alt_bit.take_delivered s)

let tests =
  Test.make_grouped ~name:"stabreg"
    [
      bench_seqnum;
      bench_epoch;
      bench_quorum;
      bench_checker;
      bench_register ~name:"datalink: alt-bit handshake (loss 20%)" altbit_ops;
      bench_register ~name:"swsr-regular: write+read (n=9)"
        (swsr_regular_ops ());
      bench_register ~name:"swsr-regular: write+read (n=25)"
        (swsr_regular_ops ~n:25 ~f:3 ());
      bench_register ~name:"swsr-regular+retry: write+read (no faults, n=9)"
        (swsr_regular_retry_ops ());
      bench_register
        ~name:"swsr-regular degraded: write (4 of 9 slots down)"
        (swsr_regular_degraded_ops ());
      bench_register ~name:"swsr-atomic: write+read (n=9)"
        (swsr_atomic_ops ());
      bench_register ~name:"swsr-atomic: write+read (n=17)"
        (swsr_atomic_ops ~n:17 ~f:2 ());
      bench_register ~name:"swsr-atomic sync: write+read (n=4)"
        (swsr_atomic_ops ~n:4 ~f:1
           ~mode:(Params.Sync { max_delay = 10; slack = 3 })
           ());
      bench_register ~name:"swsr-atomic lossy 30%: write+read (n=9)"
        (swsr_atomic_ops
           ~medium:(Net.Stabilizing { loss = 0.3; dup = 0.1; retrans = 30 })
           ());
      bench_register ~name:"swmr: write+read (3 readers, n=9)" swmr_ops;
      bench_register ~name:"swmr+write-back: write+read (3 readers, n=9)"
        swmr_wb_ops;
      bench_register ~name:"mwmr: write+read (m=3, n=9)" mwmr_ops;
      bench_register ~name:"kv: set+get (m=2, n=9)" kv_ops;
      bench_mc_exhaustive;
    ]

let () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Printf.printf "%-52s %14s %12s\n" "benchmark" "ns/op" "ops/s";
  Printf.printf "%s\n" (String.make 80 '-');
  List.iter
    (fun (name, ns) ->
      Printf.printf "%-52s %14.1f %12.0f\n" name ns (1e9 /. ns))
    rows;
  let mc_rows = mc_throughput_rows () in
  Printf.printf "\n%-52s %10s %12s %12s %10s\n" "model checker" "states"
    "states/s" "peak visited" "replays/st";
  Printf.printf "%s\n" (String.make 100 '-');
  List.iter
    (fun (name, states, peak, _dt, sps, exhaustive, _replays, rps) ->
      Printf.printf "%-52s %10d %12.0f %12d %10.3f%s\n" name states sps peak
        rps
        (if exhaustive then "" else "  (budget)"))
    mc_rows;
  let par_rows = mc_parallel_rows () @ [ mc_soak_row () ] in
  Printf.printf "\n%-56s %9s %9s %6s %12s %5s\n" "cooperative frontier"
    "unique" "states" "redun" "unique/s" "util";
  Printf.printf "%s\n" (String.make 104 '-');
  List.iter
    (fun r ->
      Printf.printf "%-56s %9d %9d %6.2f %12.0f %5.2f%s\n" r.row_name
        r.row_unique r.row_states r.row_redundancy r.row_unique_per_sec
        r.row_utilization
        (if r.row_exhaustive then "" else "  (budget)"))
    par_rows;
  let (chaos_name, chaos_trials, chaos_domains, chaos_ops, chaos_dt, tps) =
    chaos_row ()
  in
  Printf.printf "\n%-52s %8.2f trials/s (%d ops in %.2fs)\n" chaos_name tps
    chaos_ops chaos_dt;
  let sh_rows = shard_rows () in
  Printf.printf "\n%-52s %10s %12s %12s %10s\n" "sharded tier" "log.ops"
    "reg.ops" "ops/s" "vticks";
  Printf.printf "%s\n" (String.make 100 '-');
  List.iter
    (fun (name, _shards, ops, reg_ops, vticks, _dt, ops_per_sec, clean) ->
      Printf.printf "%-52s %10d %12d %12.0f %10d%s\n" name ops reg_ops
        ops_per_sec vticks
        (if clean then "" else "  (NOT CLEAN)"))
    sh_rows;
  let (lint_name, lint_rules, lint_files, lint_findings, lint_modules, lint_dt)
      =
    lint_row ()
  in
  Printf.printf "\n%-52s %6d files, %d finding(s), %d module(s) in %.2fs\n"
    lint_name lint_files lint_findings lint_modules lint_dt;
  (* Machine-readable companion: v6 keeps every v5 section; the
     mc_parallel rows now describe the cooperative frontier search —
     [states] is expanded work, [unique_states] the visited-set size,
     [redundancy_ratio] their quotient (the portfolio paid ~K here), and
     each row carries cpu_seconds/seconds utilization — plus the soak
     row (first exhaustive n=4 Byzantine config at 4 domains).  Written
     to a new file so the committed BENCH_1..5.json stay fixed points of
     their eras. *)
  let json =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "stabreg/bench/v6");
        ( "rows",
          Obs.Json.List
            (List.map
               (fun (name, ns) ->
                 let num x =
                   if Float.is_nan x then Obs.Json.Null else Obs.Json.Float x
                 in
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.Str name);
                     ("ns_per_op", num ns);
                     ("ops_per_sec", num (1e9 /. ns));
                   ])
               rows) );
        (* Explorer throughput, measured one-shot rather than via OLS. *)
        ( "mc",
          Obs.Json.List
            (List.map
               (fun (name, states, peak, dt, sps, exhaustive, replays, rps) ->
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.Str name);
                     ("states", Obs.Json.Int states);
                     ("peak_visited", Obs.Json.Int peak);
                     ("seconds", Obs.Json.Float dt);
                     ("states_per_sec", Obs.Json.Float sps);
                     ("exhaustive", Obs.Json.Bool exhaustive);
                     ("replays", Obs.Json.Int replays);
                     ("replays_per_state", Obs.Json.Float rps);
                   ])
               mc_rows) );
        ( "mc_parallel",
          Obs.Json.List
            (List.map
               (fun r ->
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.Str r.row_name);
                     ("domains", Obs.Json.Int r.row_domains);
                     ("states", Obs.Json.Int r.row_states);
                     ("unique_states", Obs.Json.Int r.row_unique);
                     ("redundancy_ratio", Obs.Json.Float r.row_redundancy);
                     ("seconds", Obs.Json.Float r.row_seconds);
                     ("cpu_seconds", Obs.Json.Float r.row_cpu_seconds);
                     ("utilization", Obs.Json.Float r.row_utilization);
                     ( "unique_states_per_sec",
                       Obs.Json.Float r.row_unique_per_sec );
                     ("exhaustive", Obs.Json.Bool r.row_exhaustive);
                   ])
               par_rows) );
        ( "chaos",
          Obs.Json.Obj
            [
              ("name", Obs.Json.Str chaos_name);
              ("trials", Obs.Json.Int chaos_trials);
              ("domains", Obs.Json.Int chaos_domains);
              ("ops", Obs.Json.Int chaos_ops);
              ("seconds", Obs.Json.Float chaos_dt);
              ("trials_per_sec", Obs.Json.Float tps);
            ] );
        ( "shard",
          Obs.Json.List
            (List.map
               (fun (name, shards, ops, reg_ops, vticks, dt, ops_per_sec, clean)
               ->
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.Str name);
                     ("shards", Obs.Json.Int shards);
                     ("ops", Obs.Json.Int ops);
                     ("register_ops", Obs.Json.Int reg_ops);
                     ("vticks", Obs.Json.Int vticks);
                     ("seconds", Obs.Json.Float dt);
                     ("ops_per_sec", Obs.Json.Float ops_per_sec);
                     ("clean", Obs.Json.Bool clean);
                   ])
               sh_rows) );
        ( "lint",
          Obs.Json.Obj
            [
              ("name", Obs.Json.Str lint_name);
              ("rules", Obs.Json.Int lint_rules);
              ("files", Obs.Json.Int lint_files);
              ("findings", Obs.Json.Int lint_findings);
              ("modules", Obs.Json.Int lint_modules);
              ("seconds", Obs.Json.Float lint_dt);
            ] );
      ]
  in
  let oc = open_out "BENCH_6.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nrows written to BENCH_6.json\n"
