(* Each [setup] builds one round's inputs and deployment from the seed
   (timed as set-up) and returns the round (timed as work).  The rounds
   of one run are identical, so every virtual-time and message count is
   a function of the seed and the size alone. *)

type round = {
  units : int;
  failed : int;
  errors : string list;
  layer : (string * float) list;
}

type t = {
  name : string;
  default_size : int;
  setup : seed:int -> size:int -> spans:Spans.t option -> unit -> round;
}

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let pct name xs p =
  match Stats.percentile xs p with Some v -> [ (name, v) ] | None -> []

let floats l = Array.of_list (List.map float_of_int l)

(* --- library counters -------------------------------------------------- *)

type net = {
  msgs : int;
  broadcasts : int;
  bytes : int;
  retries : int;
  pkts : int;
  dropped : int;
}

let zero_net = { msgs = 0; broadcasts = 0; bytes = 0; retries = 0; pkts = 0; dropped = 0 }

let net_of_scenario scn =
  let m = Harness.Scenario.metrics scn in
  let c = Obs.Metrics.counter m in
  let sent_bytes name =
    String.starts_with ~prefix:"msg.sent." name
    && String.ends_with ~suffix:".bytes" name
  in
  {
    msgs = c "net.msgs";
    broadcasts = c "ss.broadcasts";
    bytes =
      List.fold_left
        (fun acc (name, v) -> if sent_bytes name then acc + v else acc)
        0 (Obs.Metrics.counters m);
    retries = c "collect.retries";
    pkts = c "net.pkts";
    dropped = c "net.dropped";
  }

let add_net a b =
  {
    msgs = a.msgs + b.msgs;
    broadcasts = a.broadcasts + b.broadcasts;
    bytes = a.bytes + b.bytes;
    retries = a.retries + b.retries;
    pkts = a.pkts + b.pkts;
    dropped = a.dropped + b.dropped;
  }

let net_layer n ~ops =
  [
    ("registers.msgs_per_op", per n.msgs ops);
    ("registers.broadcasts_per_op", per n.broadcasts ops);
    ("registers.msg_bytes_per_op", per n.bytes ops);
    ("registers.collect_retries_per_op", per n.retries ops);
    ("ss_transport.pkts_per_msg", per n.pkts n.msgs);
    ("ss_transport.drop_ratio", per n.dropped n.pkts);
  ]

(* --- shard-zipf ---------------------------------------------------------- *)

module Shard_zipf = struct
  let config ~size =
    {
      Shard.Tier.default_config with
      Shard.Tier.workload =
        { Workload.Openloop.default_config with Workload.Openloop.ops = size };
    }

  let failures (t : Shard.Tier.tally) = t.degraded + t.timed_out

  let total (t : Shard.Tier.tally) = t.ok + t.degraded + t.timed_out

  let check (r : Shard.Tier.report) ~size ~expected =
    let shard_errors =
      List.concat_map
        (fun (s : Shard.Tier.shard_report) ->
          (if s.stuck = [] then []
           else
             [
               Printf.sprintf "shard %d stuck: %s" s.shard
                 (String.concat "; " s.stuck);
             ])
          @ (if s.violations = 0 && s.liveness = 0 then []
             else
               [
                 Printf.sprintf "shard %d: %d regularity violation(s), %d \
                                 liveness failure(s)"
                   s.shard s.violations s.liveness;
               ])
          @
          if s.ops = expected.(s.shard) then []
          else
            [
              Printf.sprintf "shard %d served %d ops, ring placement gives %d"
                s.shard s.ops expected.(s.shard);
            ])
        r.shards
    in
    (if r.clean then [] else [ "tier report not clean" ])
    @ (if r.ops = size then []
       else [ Printf.sprintf "tier ran %d ops of %d" r.ops size ])
    @ shard_errors

  let layer (r : Shard.Tier.report) shard0 =
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 r.shards in
    let maxf f = List.fold_left (fun acc s -> Float.max acc (f s)) 0.0 r.shards in
    let register_ops (s : Shard.Tier.shard_report) =
      s.register_writes + s.register_reads
    in
    [
      ("shard.coalesce_ratio", per r.ops (sum register_ops));
      ( "shard.ops_per_write_batch",
        per (sum (fun s -> total s.writes)) (sum (fun s -> s.write_batches)) );
      ( "shard.ops_per_read_batch",
        per (sum (fun s -> total s.reads)) (sum (fun s -> s.read_batches)) );
      ( "shard.max_shard_ops_share",
        maxf (fun s -> per s.Shard.Tier.ops r.ops) );
      ("shard.op_vticks_p50", maxf (fun s -> s.latency.p50));
      ("shard.op_vticks_p99", maxf (fun s -> s.latency.p99));
    ]
    @
    match (shard0, r.shards) with
    | Some scn, s0 :: _ -> net_layer (net_of_scenario scn) ~ops:(register_ops s0)
    | _ -> []

  let setup ~seed ~size ~spans =
    let cfg = config ~size in
    let ops =
      Spans.opt spans ~name:"workload.generate" (fun () ->
          Workload.Openloop.generate cfg.workload ~seed)
    in
    let ring =
      Spans.opt spans ~name:"shard.ring_build" (fun () ->
          Shard.Ring.create ~seed ~shards:cfg.shards ~vnodes:cfg.vnodes)
    in
    let owner =
      Array.init cfg.workload.keys (fun k ->
          Shard.Ring.shard_of ring (Shard.Tier.key_name k))
    in
    let expected = Array.make cfg.shards 0 in
    List.iter
      (fun (op : Workload.Openloop.op) ->
        let s = owner.(op.key) in
        expected.(s) <- expected.(s) + 1)
      ops;
    fun () ->
      let shard0 = ref None in
      let on_scenario =
        Option.map (fun _ scn -> shard0 := Some scn) spans
      in
      let r =
        Spans.opt spans ~name:"shard.tier_run" (fun () ->
            Shard.Tier.run ?on_scenario cfg ~seed)
      in
      {
        units = r.ops;
        failed = failures r.writes + failures r.reads;
        errors = check r ~size ~expected;
        layer = (if spans = None then [] else layer r !shard0);
      }

  let workload = { name = "shard-zipf"; default_size = 20_000; setup }
end

(* --- kv-closed ----------------------------------------------------------- *)

module Kv_closed = struct
  let keys = 64

  let clients = 4

  let write_share = 0.1

  let key_names = Array.init keys (Printf.sprintf "key-%02d")

  type op = Set of int | Get of int

  type deployment = {
    scn : Harness.Scenario.t;
    stores : Kv.Store.t array;
    schedule : op array array;
    histories : Oracles.History.t array;
  }

  (* Client [id] writes only the keys [k] with [k mod clients = id], so
     every per-key history has one writer and the regular-register
     oracle applies. *)
  let deploy ~seed ~size =
    let params =
      Registers.Params.create_exn ~retry:Registers.Params.default_retry ~n:9
        ~f:1 ~mode:Registers.Params.Async ()
    in
    let scn = Harness.Scenario.create ~seed ~params () in
    Byzantine.Adversary.compromise scn.adversary 0 Byzantine.Behavior.equivocate;
    let cfg = Kv.Store.config ~keys:(Array.to_list key_names) ~clients in
    let stores =
      Array.init clients (fun id ->
          Kv.Store.client ~net:scn.net ~cfg ~id ~client_id:(100 + id))
    in
    let rng = Sim.Rng.create (seed lxor 0x6b76) in
    let schedule =
      Array.init clients (fun id ->
          Array.init size (fun _ ->
              if Sim.Rng.float rng 1.0 < write_share then
                Set (id + (clients * Sim.Rng.int rng (keys / clients)))
              else Get (Sim.Rng.int rng keys)))
    in
    {
      scn;
      stores;
      schedule;
      histories = Array.init keys (fun _ -> Oracles.History.create ());
    }

  let check_histories histories =
    let checked = ref 0 and errors = ref [] in
    Array.iteri
      (fun k h ->
        let rep = Oracles.Regularity.check ~initial_ok:true h in
        checked := !checked + rep.Oracles.Regularity.reads_checked;
        if not (Oracles.Regularity.is_clean rep) then
          errors :=
            Printf.sprintf "%s: %d regularity violation(s), %d liveness \
                            failure(s)"
              key_names.(k)
              (List.length rep.violations)
              rep.liveness_failures
            :: !errors)
      histories;
    (!checked, List.rev !errors)

  let history_ops d = Array.to_list (Array.map Oracles.History.ops d.histories)

  let run ?spans ~step d =
    let scn = d.scn in
    let traced = Option.is_some spans in
    let size = Array.length d.schedule.(0) in
    let failed = ref 0 in
    let vt_set = ref [] and vt_get = ref [] in
    let client id () =
      let proc = Printf.sprintf "c%d" id in
      Array.iteri
        (fun i op ->
          let op_id = (id * size) + i in
          let inv = Harness.Scenario.now scn in
          let record ~key ~kind ~ok samples v =
            let resp = Harness.Scenario.now scn in
            Oracles.History.record d.histories.(key) ~proc ~kind ~inv ~resp ~ok
              v;
            if traced then
              samples := (Sim.Vtime.to_int resp - Sim.Vtime.to_int inv) :: !samples
          in
          match op with
          | Set k ->
            let v = Registers.Value.int (((id + 1) * 10_000_000) + i) in
            let o =
              Spans.opt spans ~op:op_id ~name:"kv.set" (fun () ->
                  Kv.Store.set_o d.stores.(id) ~key:key_names.(k) v)
            in
            if not (Registers.Outcome.is_ok o) then incr failed;
            (* Even a degraded write reached a read quorum, so the oracle
               must treat it as a write that may be read. *)
            record ~key:k ~kind:Oracles.History.Write ~ok:true vt_set v
          | Get k -> (
            match
              Spans.opt spans ~op:op_id ~name:"kv.get" (fun () ->
                  Kv.Store.get_o d.stores.(id) ~key:key_names.(k))
            with
            | Registers.Outcome.Ok v ->
              record ~key:k ~kind:Oracles.History.Read ~ok:true vt_get v
            | Registers.Outcome.Degraded _ | Registers.Outcome.Timed_out _ ->
              incr failed;
              record ~key:k ~kind:Oracles.History.Read ~ok:false vt_get
                Registers.Value.bot))
        d.schedule.(id)
    in
    let handles =
      List.init clients (fun id ->
          let name = Printf.sprintf "kv.client.%d" id in
          (name, Sim.Fiber.spawn ~name (client id)))
    in
    let events, engine_s =
      if step then
        Spans.opt spans ~name:"sim.run" (fun () ->
            let t0 = Unix.gettimeofday () in
            let n = ref 0 in
            while Sim.Engine.step scn.engine do
              incr n
            done;
            (!n, Unix.gettimeofday () -. t0))
      else (
        Harness.Scenario.run scn;
        (0, 0.0))
    in
    (* A failed client re-raises out of the engine loop; one still
       running here never finished. *)
    let unfinished = Harness.Scenario.stuck_jobs handles in
    let reads_checked, oracle_errors =
      Spans.opt spans ~name:"oracles.check" (fun () -> check_histories d.histories)
    in
    let units = clients * size in
    let layer () =
      let set = floats !vt_set and get = floats !vt_get in
      let all = Array.append set get in
      pct "kv.set_vticks_p50" set 0.5
      @ pct "kv.get_vticks_p50" get 0.5
      @ pct "kv.op_vticks_p50" all 0.5
      @ pct "kv.op_vticks_p99" all 0.99
      @ [
          ("sim.events_per_op", per events units);
          ("sim.ns_per_event", engine_s *. 1e9 /. float_of_int (max 1 events));
          ("oracles.reads_checked", float_of_int reads_checked);
        ]
      @ net_layer (net_of_scenario scn) ~ops:units
    in
    {
      units;
      failed = !failed;
      errors = unfinished @ oracle_errors;
      layer = (if traced then layer () else []);
    }

  let workload =
    {
      name = "kv-closed";
      default_size = 2_500;
      setup =
        (fun ~seed ~size ~spans ->
          let d = deploy ~seed ~size in
          fun () -> run ?spans ~step:(Option.is_some spans) d);
    }
end

(* --- chaos-lossy --------------------------------------------------------- *)

module Chaos_lossy = struct
  (* The default regular-family mix over the lossy medium, less the mobile
     roams and the initial compromise.  With either of them a client
     fiber ends stuck in one lossy trial in a few hundred, whatever the
     seed, and every operation of a benchmark workload must finish.  The
     transient injections and link-chaos windows stay. *)
  let config =
    {
      (Chaos.Campaign.default_config ~family:Chaos.Campaign.Regular) with
      Chaos.Campaign.medium = Chaos.Campaign.Lossy;
      initial = [];
      roams = 0;
    }

  (* The campaign generates each trial's schedule itself, so there is
     nothing to set up. *)
  let setup ~seed ~size ~spans () =
    let net = ref zero_net and last = ref None and starts = ref [] in
    let close_last () =
      Option.iter (fun scn -> net := add_net !net (net_of_scenario scn)) !last
    in
    let on_scenario =
      Option.map
        (fun _ ~trial:_ scn ->
          close_last ();
          last := Some scn;
          starts := Unix.gettimeofday () :: !starts)
        spans
    in
    let r =
      Spans.opt spans ~name:"chaos.campaign" (fun () ->
          Chaos.Campaign.run ?on_scenario ~shrink_violations:false config ~seed
            ~trials:size)
    in
    let stop = Unix.gettimeofday () in
    close_last ();
    (* A trial's wall time runs from its deployment to the next one's. *)
    Option.iter
      (fun sp ->
        ignore
          (List.fold_left
             (fun (stop, i) start ->
               Spans.add sp ~op:i ~name:"chaos.trial" ~start ~stop;
               (start, i - 1))
             (stop, size - 1) !starts))
      spans;
    let failed = ref 0 and errors = ref [] and ops = ref 0 in
    let verdicts = Hashtbl.create 4 in
    List.iter
      (fun (t : Chaos.Campaign.trial) ->
        let kind = Chaos.Campaign.verdict_kind t.outcome.verdict in
        Hashtbl.replace verdicts kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt verdicts kind));
        (match kind with
        | "clean" -> ()
        | "liveness" | "stuck" -> incr failed
        | _ ->
          errors :=
            Format.asprintf "trial %d (seed %d): %a" t.index t.trial_seed
              Chaos.Campaign.pp_verdict t.outcome.verdict
            :: !errors);
        ops := !ops + t.outcome.ops)
      r.trials;
    let count kind =
      float_of_int (Option.value ~default:0 (Hashtbl.find_opt verdicts kind))
    in
    {
      units = size;
      failed = !failed;
      errors = List.rev !errors;
      layer =
        (if spans = None then []
         else
           [
             ("chaos.ops_per_trial", per !ops size);
             ("chaos.verdict.clean", count "clean");
             ("chaos.verdict.stuck", count "stuck");
             ("chaos.verdict.liveness", count "liveness");
           ]
           @ net_layer !net ~ops:!ops);
    }

  let workload = { name = "chaos-lossy"; default_size = 100; setup }
end

(* --- mc-n4-silent -------------------------------------------------------- *)

module Mc_silent = struct
  (* The size is the read budget: the state space grows with it. *)
  let config ~size =
    {
      (Mc.Config.default ~family:Mc.Config.Regular) with
      Mc.Config.n = 4;
      f = 1;
      byz = [ (0, Mc.Config.Silent) ];
      writes = 1;
      reads = 1;
      read_budget = size;
    }

  let setup ~seed ~size ~spans =
    let cfg = config ~size in
    Spans.opt spans ~name:"mc.deploy" (fun () ->
        (match Mc.Config.validate cfg with Ok () -> () | Error e -> invalid_arg e);
        ignore (Mc.Sys.create cfg));
    fun () ->
      let t0 = Unix.gettimeofday () in
      let o =
        Spans.opt spans ~name:"mc.search" (fun () -> Mc.Checker.search ~seed cfg)
      in
      let dt = Unix.gettimeofday () -. t0 in
      let s = o.stats in
      let errors =
        (if o.exhaustive then [] else [ "search truncated by a budget" ])
        @
        match o.verdict with
        | Mc.Checker.Clean -> []
        | v -> [ Format.asprintf "verdict %a" Mc.Checker.pp_verdict v ]
      in
      {
        units = 1;
        failed = (if errors = [] then 0 else 1);
        errors;
        layer =
          (if spans = None then []
           else
             [
               ("mc.unique_states", float_of_int s.peak_visited);
               ("mc.states", float_of_int s.states);
               ("mc.unique_ratio", per s.peak_visited s.states);
               ("mc.replays_per_state", per s.replays s.states);
               ("mc.revisits", float_of_int s.revisits);
               ("mc.sleep_skips", float_of_int s.sleep_skips);
               ("mc.fp_collisions", float_of_int s.fp_collisions);
               ("mc.unique_states_per_s", float_of_int s.peak_visited /. dt);
             ]);
      }

  let workload = { name = "mc-n4-silent"; default_size = 2; setup }
end

let all =
  [ Shard_zipf.workload; Kv_closed.workload; Chaos_lossy.workload; Mc_silent.workload ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
