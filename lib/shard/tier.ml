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
          Harness.Scenario.crash scn ~at:cr.at ~server:cr.server
            ~down_for:cr.down_for)
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

let crash_codec () =
  Obs.Json.(
    record (fun at server down_for -> { at; server; down_for })
    |> field "at" int (fun c -> c.at)
    |> field "server" int (fun c -> c.server)
    |> field "down_for" (nullable int) (fun c -> c.down_for)
    |> seal)

let chaos_codec () =
  Obs.Json.(
    record (fun target injections crashes -> { target; injections; crashes })
    |> field "target" int (fun c -> c.target)
    |> field "injections" (list int) (fun c -> c.injections)
    |> field "crashes" (list (crash_codec ())) (fun c -> c.crashes)
    |> seal)

let config_codec () =
  Obs.Json.(
    record (fun shards vnodes n f retry workload chaos ->
        { shards; vnodes; n; f; retry; workload; chaos })
    |> field "shards" int (fun (c : config) -> c.shards)
    |> field "vnodes" int (fun c -> c.vnodes)
    |> field "n" int (fun c -> c.n)
    |> field "f" int (fun c -> c.f)
    |> field "retry" bool (fun c -> c.retry)
    |> field "workload" (Workload.Openloop.config_codec ()) (fun c ->
           c.workload)
    |> field "chaos" (nullable (chaos_codec ())) (fun c -> c.chaos)
    |> seal ~check:validate)

let latency_codec () =
  Obs.Json.(
    record (fun count mean p50 p99 p999 max ->
        { count; mean; p50; p99; p999; max })
    |> field "count" int (fun l -> l.count)
    |> field "mean" float (fun l -> l.mean)
    |> field "p50" float (fun l -> l.p50)
    |> field "p99" float (fun l -> l.p99)
    |> field "p999" float (fun l -> l.p999)
    |> field "max" float (fun l -> l.max)
    |> seal)

let shard_report_codec () =
  let tally = Registers.Outcome.tally_codec () in
  Obs.Json.(
    record
      (fun shard keys ops writes reads register_writes register_reads
           write_batches read_batches latency duration stuck reads_checked
           violations liveness clean ->
        {
          shard; keys; ops; writes; reads; register_writes; register_reads;
          write_batches; read_batches; latency; duration; stuck;
          reads_checked; violations; liveness; clean;
        })
    |> field "shard" int (fun r -> r.shard)
    |> field "keys" int (fun r -> r.keys)
    |> field "ops" int (fun (r : shard_report) -> r.ops)
    |> field "writes" tally (fun (r : shard_report) -> r.writes)
    |> field "reads" tally (fun (r : shard_report) -> r.reads)
    |> field "register_writes" int (fun r -> r.register_writes)
    |> field "register_reads" int (fun r -> r.register_reads)
    |> field "write_batches" int (fun r -> r.write_batches)
    |> field "read_batches" int (fun r -> r.read_batches)
    |> field "latency" (latency_codec ()) (fun r -> r.latency)
    |> field "duration" int (fun (r : shard_report) -> r.duration)
    |> field "stuck" (list string) (fun r -> r.stuck)
    |> field "reads_checked" int (fun r -> r.reads_checked)
    |> field "violations" int (fun r -> r.violations)
    |> field "liveness" int (fun r -> r.liveness)
    |> field "clean" bool (fun (r : shard_report) -> r.clean)
    |> seal)

let codec () =
  let tally = Registers.Outcome.tally_codec () in
  Obs.Json.(
    record
      (fun seed config key_owners shards ops writes reads duration isolated
           clean ->
        {
          seed; config; key_owners; shards; ops; writes; reads; duration;
          isolated; clean;
        })
    |> field "seed" int (fun r -> r.seed)
    |> field "config" (config_codec ()) (fun r -> r.config)
    |> field "key_owners" (list int) (fun r -> r.key_owners)
    |> field "shards" (list (shard_report_codec ())) (fun r -> r.shards)
    |> field "ops" int (fun r -> r.ops)
    |> field "writes" tally (fun r -> r.writes)
    |> field "reads" tally (fun r -> r.reads)
    |> field "duration" int (fun r -> r.duration)
    |> field "isolated" bool (fun r -> r.isolated)
    |> field "clean" bool (fun r -> r.clean)
    |> seal |> with_schema schema)

let to_json r = Obs.Json.encode (codec ()) r

let of_json j = Obs.Json.decode (codec ()) "shard-report" j

let replay ?on_scenario ?domains r = run ?on_scenario ?domains r.config ~seed:r.seed

let matches a b = Obs.Json.equal (to_json a) (to_json b)

let pp_shard fmt (r : shard_report) =
  Format.fprintf fmt
    "shard %d: %d keys, %d ops in %d+%d register ops (%d+%d batches), p50 \
     %.1f p99 %.1f p999 %.1f, %s"
    r.shard r.keys r.ops r.register_writes r.register_reads r.write_batches
    r.read_batches r.latency.p50 r.latency.p99 r.latency.p999
    (if r.clean then "clean" else "NOT CLEAN")
