(* The sharded storage tier: S independent register-group deployments
   behind a consistent-hash ring, driven by an open-loop workload
   through a batching router.

   Each shard is a full Harness.Scenario — its own engine, network,
   adversary, fault plan and clock — running one Kv.Store deployment
   (n servers, f tolerated, m = 2 store clients).  Three fibers per
   shard:

   - a dispatcher replays the shard's slice of the open-loop schedule,
     pushing each op into the write or read queue at its arrival
     instant (arrivals never wait: open loop);
   - a writer fiber drains the write queue into batches, coalesces each
     batch last-write-wins per key, and issues one typed-outcome
     [Kv.Store.set_o] per distinct key — every logical write in the
     coalesced run shares the register op's outcome and pays latency
     from its own arrival instant;
   - a reader fiber does the same with one [Kv.Store.get_o] per
     distinct key serving all queued readers of that key.

   Batching is what lets a single-core simulation beat the one-op-at-a-
   time kv baseline: under Zipfian skew a hot key's queue grows while a
   register round trip is in flight, so one register op retires many
   logical ops.

   Shards never exchange messages, so a fault plan targeting one shard
   cannot touch the others — the isolation oracle asserts exactly that,
   checking every non-target shard's per-key history against the
   single-writer regularity condition.  Everything is deterministic in
   (config, seed); reports replay bit-for-bit at any [~domains]. *)

type crash = { at : int; server : int; down_for : int option }

type chaos = { target : int; injections : int list; crashes : crash list }

type config = {
  shards : int;
  vnodes : int;
  n : int;
  f : int;
  retry : bool;
  workload : Workload.Openloop.config;
  chaos : chaos option;
}

let default_config =
  {
    shards = 4;
    vnodes = 16;
    n = 9;
    f = 1;
    retry = true;
    workload = Workload.Openloop.default_config;
    chaos = None;
  }

let validate cfg =
  if cfg.shards <= 0 then Error "tier: shards must be positive"
  else if cfg.vnodes <= 0 then Error "tier: vnodes must be positive"
  else if cfg.n <= 0 then Error "tier: n must be positive"
  else if cfg.f < 0 then Error "tier: negative f"
  else
    match Workload.Openloop.validate cfg.workload with
    | Error _ as e -> e
    | Ok () -> (
      match cfg.chaos with
      | None -> Ok ()
      | Some c ->
        if c.target < 0 || c.target >= cfg.shards then
          Error "tier: chaos target out of range"
        else if List.exists (fun at -> at < 0) c.injections then
          Error "tier: negative injection instant"
        else if
          List.exists
            (fun cr ->
              cr.at < 0 || cr.server < 0 || cr.server >= cfg.n
              || match cr.down_for with Some d -> d <= 0 | None -> false)
            c.crashes
        then Error "tier: bad crash spec"
        else Ok ())

let key_name k = Printf.sprintf "key-%03d" k

(* Distinct across the whole run: seq is globally unique and client is
   bounded, so the oracle can map read values back to writes. *)
let value_for (op : Workload.Openloop.op) =
  Registers.Value.int (((op.client + 1) * 10_000_000) + op.seq)

let shard_seed ~seed s = seed + (1_000_003 * (s + 1))

(* The instant after which the target shard must have re-stabilized:
   the last corruption, or the last crash's recovery edge. *)
let last_disturbance c =
  let inj = List.fold_left (fun acc at -> Int.max acc at) 0 c.injections in
  List.fold_left
    (fun acc cr ->
      Int.max acc (match cr.down_for with Some d -> cr.at + d | None -> cr.at))
    inj c.crashes

type tally = Registers.Outcome.tally = {
  ok : int;
  degraded : int;
  timed_out : int;
}

type latency = {
  count : int;
  mean : float;
  p50 : float;
  p99 : float;
  p999 : float;
  max : float;
}

let zero_latency =
  { count = 0; mean = 0.0; p50 = 0.0; p99 = 0.0; p999 = 0.0; max = 0.0 }

(* Quantiles are interpolated floats; six decimals is far inside the
   17-significant-digit JSON float round trip, so rounding here keeps
   artifacts bit-stable without losing anything a tick-grained latency
   could mean. *)
let r6 x = Float.round (x *. 1e6) /. 1e6

type shard_report = {
  shard : int;
  keys : int;
  ops : int;
  writes : tally;
  reads : tally;
  register_writes : int;  (* register ops after coalescing *)
  register_reads : int;
  write_batches : int;
  read_batches : int;
  latency : latency;  (* per logical op, arrival to response, in ticks *)
  duration : int;
  stuck : string list;
  reads_checked : int;
  violations : int;
  liveness : int;
  clean : bool;
}

type report = {
  seed : int;
  config : config;
  key_owners : int list;
  shards : shard_report list;
  ops : int;
  writes : tally;
  reads : tally;
  duration : int;  (* max over shards *)
  isolated : bool;  (* every non-target shard's history is clean *)
  clean : bool;  (* every shard, target included post-stabilization *)
}

(* --- one shard ------------------------------------------------------ *)

(* Distinct keys of a batch in ascending order, each with its queued ops
   in arrival order — the deterministic coalescing rule. *)
let by_key batch =
  let keys =
    List.sort_uniq Int.compare
      (List.map (fun (o : Workload.Openloop.op) -> o.key) batch)
  in
  List.map
    (fun k ->
      (k, List.filter (fun (o : Workload.Openloop.op) -> o.key = k) batch))
    keys

let last_of first rest = List.fold_left (fun _ o -> o) first rest

let empty_shard_report ~shard ~keys =
  {
    shard;
    keys;
    ops = 0;
    writes = Registers.Outcome.zero_tally;
    reads = Registers.Outcome.zero_tally;
    register_writes = 0;
    register_reads = 0;
    write_batches = 0;
    read_batches = 0;
    latency = zero_latency;
    duration = 0;
    stuck = [];
    reads_checked = 0;
    violations = 0;
    liveness = 0;
    clean = true;
  }

let run_shard cfg ~seed ~shard ~keys_owned ~(ops : Workload.Openloop.op list)
    ~on_scenario =
  if keys_owned = [] then empty_shard_report ~shard ~keys:0
  else begin
    let params =
      Registers.Params.create_unchecked
        ~retry:
          (if cfg.retry then Registers.Params.default_retry
           else Registers.Params.paper_wait)
        ~n:cfg.n ~f:cfg.f ~mode:Registers.Params.Async ()
    in
    let scn = Harness.Scenario.create ~seed:(shard_seed ~seed shard) ~params () in
    (match cfg.chaos with
    | Some c when c.target = shard ->
      List.iter
        (fun at ->
          Sim.Fault.schedule scn.Harness.Scenario.fault
            ~engine:scn.Harness.Scenario.engine ~at:(Sim.Vtime.of_int at)
            ~prefix:"")
        c.injections;
      List.iter
        (fun cr ->
          Sim.Fault.schedule_crash scn.Harness.Scenario.fault
            ~engine:scn.Harness.Scenario.engine ~at:(Sim.Vtime.of_int cr.at)
            ?down_for:cr.down_for
            ~prefix:(Printf.sprintf "server.%d" cr.server)
            ())
        c.crashes
    | Some _ | None -> ());
    Option.iter (fun f -> f scn) on_scenario;
    let net = scn.Harness.Scenario.net in
    let store_cfg =
      Kv.Store.config ~keys:(List.map key_name keys_owned) ~clients:2
    in
    let store_w = Kv.Store.client ~net ~cfg:store_cfg ~id:0 ~client_id:100 in
    let store_r = Kv.Store.client ~net ~cfg:store_cfg ~id:1 ~client_id:101 in
    List.iter
      (fun (_, port) -> Harness.Scenario.register_port scn port)
      (Registers.Net.client_ports net);
    let metrics = Harness.Scenario.metrics scn in
    let histories = List.map (fun k -> (k, Oracles.History.create ())) keys_owned in
    let history_for k =
      match List.assoc_opt k histories with
      | Some h -> h
      | None -> assert false (* the dispatcher only routes owned keys *)
    in
    let wq : Workload.Openloop.op Sim.Mailbox.t = Sim.Mailbox.create () in
    let rq : Workload.Openloop.op Sim.Mailbox.t = Sim.Mailbox.create () in
    let n_writes =
      List.length
        (List.filter
           (fun (o : Workload.Openloop.op) ->
             match o.kind with
             | Workload.Openloop.Write -> true
             | Workload.Openloop.Read -> false)
           ops)
    in
    let n_reads = List.length ops - n_writes in
    let writes = ref Registers.Outcome.zero_tally
    and reads = ref Registers.Outcome.zero_tally in
    let register_writes = ref 0 and register_reads = ref 0 in
    let write_batches = ref 0 and read_batches = ref 0 in
    let now_int () = Sim.Vtime.to_int (Harness.Scenario.now scn) in
    let observe_op ~kind_label o (op : Workload.Openloop.op) ~resp =
      Obs.Metrics.incr metrics
        (Printf.sprintf "shard.%s.%s" kind_label (Registers.Outcome.kind o));
      Obs.Metrics.observe_named metrics "shard.op_latency"
        (float_of_int (resp - op.at))
    in
    let dispatcher () =
      List.iter
        (fun (op : Workload.Openloop.op) ->
          let d = op.at - now_int () in
          if d > 0 then Harness.Scenario.sleep scn d;
          match op.kind with
          | Workload.Openloop.Write -> Sim.Mailbox.push wq op
          | Workload.Openloop.Read -> Sim.Mailbox.push rq op)
        ops
    in
    let writer () =
      let pending = ref n_writes in
      while !pending > 0 do
        let first = Sim.Mailbox.recv wq in
        let batch = first :: Sim.Mailbox.drain wq in
        pending := !pending - List.length batch;
        incr write_batches;
        List.iter
          (fun (k, ops_k) ->
            match ops_k with
            | [] -> ()
            | first_k :: rest_k ->
              let winner = last_of first_k rest_k in
              let v = value_for winner in
              let inv = Harness.Scenario.now scn in
              let o = Kv.Store.set_o store_w ~key:(key_name k) v in
              let resp = Harness.Scenario.now scn in
              incr register_writes;
              (* Even a degraded write reached a read quorum, so the
                 oracle must treat it as a write that may be read. *)
              Oracles.History.record (history_for k) ~proc:"router.w"
                ~kind:Oracles.History.Write ~inv ~resp v;
              writes :=
                Registers.Outcome.bump !writes o ~count:(List.length ops_k);
              List.iter
                (fun op ->
                  observe_op ~kind_label:"write" o op
                    ~resp:(Sim.Vtime.to_int resp))
                ops_k)
          (by_key batch)
      done
    in
    let reader () =
      let pending = ref n_reads in
      while !pending > 0 do
        let first = Sim.Mailbox.recv rq in
        let batch = first :: Sim.Mailbox.drain rq in
        pending := !pending - List.length batch;
        incr read_batches;
        List.iter
          (fun (k, ops_k) ->
            let inv = Harness.Scenario.now scn in
            let o = Kv.Store.get_o store_r ~key:(key_name k) in
            let resp = Harness.Scenario.now scn in
            incr register_reads;
            (match o with
            | Registers.Outcome.Ok v ->
              Oracles.History.record (history_for k) ~proc:"router.r"
                ~kind:Oracles.History.Read ~inv ~resp v
            | Registers.Outcome.Degraded _ | Registers.Outcome.Timed_out _ ->
              Oracles.History.record (history_for k) ~proc:"router.r"
                ~kind:Oracles.History.Read ~inv ~resp ~ok:false
                Registers.Value.bot);
            reads := Registers.Outcome.bump !reads o ~count:(List.length ops_k);
            List.iter
              (fun op ->
                observe_op ~kind_label:"read" o op
                  ~resp:(Sim.Vtime.to_int resp))
              ops_k)
          (by_key batch)
      done
    in
    let handles =
      [
        ("dispatcher", Sim.Fiber.spawn ~name:"shard.dispatcher" dispatcher);
        ("router.w", Sim.Fiber.spawn ~name:"shard.router.w" writer);
        ("router.r", Sim.Fiber.spawn ~name:"shard.router.r" reader);
      ]
    in
    Harness.Scenario.run scn;
    let stuck = Harness.Scenario.stuck_jobs handles in
    (* Oracle: every key is single-writer (one router fiber), so the
       per-key history must satisfy the regular condition — from the
       start on undisturbed shards, from the first post-disturbance
       write's completion on the chaos target. *)
    let cutoff_after =
      match cfg.chaos with
      | Some c when c.target = shard -> Some (last_disturbance c)
      | Some _ | None -> None
    in
    let reads_checked = ref 0 and violations = ref 0 and liveness = ref 0 in
    List.iter
      (fun (_, h) ->
        let rep =
          match cutoff_after with
          | None -> Some (Oracles.Regularity.check ~initial_ok:true h)
          | Some lo -> (
            match Oracles.Stabilization.cutoff_from h ~lo with
            | None -> None (* never rewritten: nothing certifiable *)
            | Some cutoff ->
              Some (Oracles.Regularity.check ~cutoff ~initial_ok:true h))
        in
        match rep with
        | None -> ()
        | Some rep ->
          reads_checked := !reads_checked + rep.Oracles.Regularity.reads_checked;
          violations :=
            !violations + List.length rep.Oracles.Regularity.violations;
          liveness := !liveness + rep.Oracles.Regularity.liveness_failures)
      histories;
    let hist = Obs.Metrics.histogram metrics "shard.op_latency" in
    let latency =
      let count = Obs.Metrics.hist_count hist in
      if count = 0 then zero_latency
      else
        {
          count;
          mean = r6 (Obs.Metrics.hist_mean hist);
          p50 = r6 (Obs.Metrics.quantile hist 0.5);
          p99 = r6 (Obs.Metrics.quantile hist 0.99);
          p999 = r6 (Obs.Metrics.quantile hist 0.999);
          max = r6 (Obs.Metrics.hist_max hist);
        }
    in
    {
      shard;
      keys = List.length keys_owned;
      ops = List.length ops;
      writes = !writes;
      reads = !reads;
      register_writes = !register_writes;
      register_reads = !register_reads;
      write_batches = !write_batches;
      read_batches = !read_batches;
      latency;
      duration = now_int ();
      stuck;
      reads_checked = !reads_checked;
      violations = !violations;
      liveness = !liveness;
      clean = !violations = 0 && !liveness = 0 && stuck = [];
    }
  end

(* --- the tier ------------------------------------------------------- *)

let run ?on_scenario ?(domains = 1) cfg ~seed =
  (match validate cfg with Ok () -> () | Error e -> invalid_arg e);
  let ring = Ring.create ~seed ~shards:cfg.shards ~vnodes:cfg.vnodes in
  let owners =
    Array.init cfg.workload.Workload.Openloop.keys (fun k ->
        Ring.shard_of ring (key_name k))
  in
  let ops = Workload.Openloop.generate cfg.workload ~seed in
  let buckets = Array.make cfg.shards [] in
  List.iter
    (fun (op : Workload.Openloop.op) ->
      let s = owners.(op.key) in
      buckets.(s) <- op :: buckets.(s))
    ops;
  let per_shard = Array.map List.rev buckets in
  let keys_of s =
    List.filter
      (fun k -> owners.(k) = s)
      (List.init (Array.length owners) Fun.id)
  in
  let shard_reports =
    Parallel.Pool.map ~domains
      (fun s ->
        run_shard cfg ~seed ~shard:s ~keys_owned:(keys_of s)
          ~ops:per_shard.(s)
          ~on_scenario:(if s = 0 then on_scenario else None))
      (List.init cfg.shards Fun.id)
  in
  let writes =
    List.fold_left
      (fun acc (r : shard_report) -> Registers.Outcome.add_tally acc r.writes)
      Registers.Outcome.zero_tally shard_reports
  in
  let reads =
    List.fold_left
      (fun acc (r : shard_report) -> Registers.Outcome.add_tally acc r.reads)
      Registers.Outcome.zero_tally shard_reports
  in
  let target = match cfg.chaos with Some c -> c.target | None -> -1 in
  let isolated =
    List.for_all
      (fun (r : shard_report) -> r.shard = target || r.clean)
      shard_reports
  in
  {
    seed;
    config = cfg;
    key_owners = Array.to_list owners;
    shards = shard_reports;
    ops = List.length ops;
    writes;
    reads;
    duration =
      List.fold_left
        (fun acc (r : shard_report) -> Int.max acc r.duration)
        0 shard_reports;
    isolated;
    clean = List.for_all (fun (r : shard_report) -> r.clean) shard_reports;
  }

(* --- artifacts ------------------------------------------------------ *)

let schema = "stabreg/shard-report/v1"

let crash_to_json (c : crash) =
  Obs.Json.Obj
    [
      ("at", Obs.Json.Int c.at);
      ("server", Obs.Json.Int c.server);
      ( "down_for",
        match c.down_for with
        | Some d -> Obs.Json.Int d
        | None -> Obs.Json.Null );
    ]

let chaos_to_json (c : chaos) =
  Obs.Json.Obj
    [
      ("target", Obs.Json.Int c.target);
      ("injections", Obs.Json.List (List.map (fun i -> Obs.Json.Int i) c.injections));
      ("crashes", Obs.Json.List (List.map crash_to_json c.crashes));
    ]

let config_to_json (c : config) =
  Obs.Json.Obj
    [
      ("shards", Obs.Json.Int c.shards);
      ("vnodes", Obs.Json.Int c.vnodes);
      ("n", Obs.Json.Int c.n);
      ("f", Obs.Json.Int c.f);
      ("retry", Obs.Json.Bool c.retry);
      ("workload", Workload.Openloop.config_to_json c.workload);
      ( "chaos",
        match c.chaos with None -> Obs.Json.Null | Some ch -> chaos_to_json ch
      );
    ]

let latency_to_json (l : latency) =
  Obs.Json.Obj
    [
      ("count", Obs.Json.Int l.count);
      ("mean", Obs.Json.Float l.mean);
      ("p50", Obs.Json.Float l.p50);
      ("p99", Obs.Json.Float l.p99);
      ("p999", Obs.Json.Float l.p999);
      ("max", Obs.Json.Float l.max);
    ]

let shard_report_to_json (r : shard_report) =
  Obs.Json.Obj
    [
      ("shard", Obs.Json.Int r.shard);
      ("keys", Obs.Json.Int r.keys);
      ("ops", Obs.Json.Int r.ops);
      ("writes", Registers.Outcome.tally_to_json r.writes);
      ("reads", Registers.Outcome.tally_to_json r.reads);
      ("register_writes", Obs.Json.Int r.register_writes);
      ("register_reads", Obs.Json.Int r.register_reads);
      ("write_batches", Obs.Json.Int r.write_batches);
      ("read_batches", Obs.Json.Int r.read_batches);
      ("latency", latency_to_json r.latency);
      ("duration", Obs.Json.Int r.duration);
      ("stuck", Obs.Json.List (List.map (fun s -> Obs.Json.Str s) r.stuck));
      ("reads_checked", Obs.Json.Int r.reads_checked);
      ("violations", Obs.Json.Int r.violations);
      ("liveness", Obs.Json.Int r.liveness);
      ("clean", Obs.Json.Bool r.clean);
    ]

let to_json (r : report) =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str schema);
      ("seed", Obs.Json.Int r.seed);
      ("config", config_to_json r.config);
      ( "key_owners",
        Obs.Json.List (List.map (fun s -> Obs.Json.Int s) r.key_owners) );
      ("shards", Obs.Json.List (List.map shard_report_to_json r.shards));
      ("ops", Obs.Json.Int r.ops);
      ("writes", Registers.Outcome.tally_to_json r.writes);
      ("reads", Registers.Outcome.tally_to_json r.reads);
      ("duration", Obs.Json.Int r.duration);
      ("isolated", Obs.Json.Bool r.isolated);
      ("clean", Obs.Json.Bool r.clean);
    ]

let crash_of_json ctx j =
  let open Obs.Json in
  let* at = int_field ctx "at" j in
  let* server = int_field ctx "server" j in
  let* down_for = opt_field ctx "down_for" as_int j in
  Ok { at; server; down_for }

let chaos_of_json ctx j =
  let open Obs.Json in
  let* target = int_field ctx "target" j in
  let* injections = list_field ctx "injections" as_int j in
  let* crashes = list_field ctx "crashes" crash_of_json j in
  Ok { target; injections; crashes }

let config_of_json j =
  let open Obs.Json in
  let ctx = "config" in
  let* shards = int_field ctx "shards" j in
  let* vnodes = int_field ctx "vnodes" j in
  let* n = int_field ctx "n" j in
  let* f = int_field ctx "f" j in
  let* retry = bool_field ctx "retry" j in
  let* workload = field ctx "workload" j in
  let* workload = Workload.Openloop.config_of_json workload in
  let* chaos = opt_field ctx "chaos" chaos_of_json j in
  let cfg = { shards; vnodes; n; f; retry; workload; chaos } in
  let* () = validate cfg in
  Ok cfg

let latency_of_json ctx j =
  let open Obs.Json in
  let* count = int_field ctx "count" j in
  let* mean = float_field ctx "mean" j in
  let* p50 = float_field ctx "p50" j in
  let* p99 = float_field ctx "p99" j in
  let* p999 = float_field ctx "p999" j in
  let* max = float_field ctx "max" j in
  Ok { count; mean; p50; p99; p999; max }

let shard_report_of_json ctx j =
  let open Obs.Json in
  let* shard = int_field ctx "shard" j in
  let* keys = int_field ctx "keys" j in
  let* ops = int_field ctx "ops" j in
  let* writes = field ctx "writes" j in
  let* writes = Registers.Outcome.tally_of_json (ctx ^ ".writes") writes in
  let* reads = field ctx "reads" j in
  let* reads = Registers.Outcome.tally_of_json (ctx ^ ".reads") reads in
  let* register_writes = int_field ctx "register_writes" j in
  let* register_reads = int_field ctx "register_reads" j in
  let* write_batches = int_field ctx "write_batches" j in
  let* read_batches = int_field ctx "read_batches" j in
  let* latency = field ctx "latency" j in
  let* latency = latency_of_json (ctx ^ ".latency") latency in
  let* duration = int_field ctx "duration" j in
  let* stuck = list_field ctx "stuck" as_string j in
  let* reads_checked = int_field ctx "reads_checked" j in
  let* violations = int_field ctx "violations" j in
  let* liveness = int_field ctx "liveness" j in
  let* clean = bool_field ctx "clean" j in
  Ok
    {
      shard;
      keys;
      ops;
      writes;
      reads;
      register_writes;
      register_reads;
      write_batches;
      read_batches;
      latency;
      duration;
      stuck;
      reads_checked;
      violations;
      liveness;
      clean;
    }

let of_json j =
  let open Obs.Json in
  let ctx = "shard-report" in
  let* () = expect_schema ctx schema j in
  let* seed = int_field ctx "seed" j in
  let* config = field ctx "config" j in
  let* config = config_of_json config in
  let* key_owners = list_field ctx "key_owners" as_int j in
  let* shards = list_field ctx "shards" shard_report_of_json j in
  let* ops = int_field ctx "ops" j in
  let* writes = field ctx "writes" j in
  let* writes = Registers.Outcome.tally_of_json (ctx ^ ".writes") writes in
  let* reads = field ctx "reads" j in
  let* reads = Registers.Outcome.tally_of_json (ctx ^ ".reads") reads in
  let* duration = int_field ctx "duration" j in
  let* isolated = bool_field ctx "isolated" j in
  let* clean = bool_field ctx "clean" j in
  Ok
    {
      seed;
      config;
      key_owners;
      shards;
      ops;
      writes;
      reads;
      duration;
      isolated;
      clean;
    }

let replay ?on_scenario ?domains r = run ?on_scenario ?domains r.config ~seed:r.seed

let matches (a : report) (b : report) =
  a.seed = b.seed && a.config = b.config && a.key_owners = b.key_owners
  && a.shards = b.shards && a.ops = b.ops && a.writes = b.writes
  && a.reads = b.reads && a.duration = b.duration
  && a.isolated = b.isolated && a.clean = b.clean

let pp_shard fmt (r : shard_report) =
  Format.fprintf fmt
    "shard %d: %d keys, %d ops in %d+%d register ops (%d+%d batches), p50 \
     %.1f p99 %.1f p999 %.1f, %s"
    r.shard r.keys r.ops r.register_writes r.register_reads r.write_batches
    r.read_batches r.latency.p50 r.latency.p99 r.latency.p999
    (if r.clean then "clean" else "NOT CLEAN")
