(* The sharded tier: consistent-hash ring properties, open-loop workload
   generation, and end-to-end tier runs (cleanliness, replay, domains
   independence, chaos isolation). *)

open Util

(* --- ring --- *)

let sample_keys n = List.init n (fun i -> Printf.sprintf "key-%03d" i)

let test_ring_deterministic () =
  let a = Shard.Ring.create ~seed:42 ~shards:4 ~vnodes:16 in
  let b = Shard.Ring.create ~seed:42 ~shards:4 ~vnodes:16 in
  check_true "same points"
    (Array.for_all2
       (fun (p1, s1) (p2, s2) -> p1 = p2 && s1 = s2)
       (Shard.Ring.points a) (Shard.Ring.points b));
  List.iter
    (fun k ->
      check_int k (Shard.Ring.shard_of a k) (Shard.Ring.shard_of b k))
    (sample_keys 64);
  check_int "key_hash deterministic"
    (Shard.Ring.key_hash ~seed:42 "key-000")
    (Shard.Ring.key_hash ~seed:42 "key-000")

let test_ring_seed_matters () =
  let a = Shard.Ring.create ~seed:1 ~shards:4 ~vnodes:16 in
  let b = Shard.Ring.create ~seed:2 ~shards:4 ~vnodes:16 in
  let moved =
    List.filter
      (fun k -> Shard.Ring.shard_of a k <> Shard.Ring.shard_of b k)
      (sample_keys 128)
  in
  check_true "different seeds place differently" (List.length moved > 0)

let test_ring_balance () =
  let r = Shard.Ring.create ~seed:7 ~shards:4 ~vnodes:64 in
  let hist = Shard.Ring.spread r (sample_keys 512) in
  Array.iteri
    (fun s c ->
      check_true (Printf.sprintf "shard %d nonempty" s) (c > 0);
      check_true
        (Printf.sprintf "shard %d within 3x of fair share (%d keys)" s c)
        (c <= 3 * (512 / 4)))
    hist

(* Adding a shard: the ring of 5 shards is the ring of 4 with shard 4's
   points added, so only keys that land on shard 4 may move. *)
let test_ring_minimal_remap () =
  let r4 = Shard.Ring.create ~seed:11 ~shards:4 ~vnodes:32 in
  let r5 = Shard.Ring.create ~seed:11 ~shards:5 ~vnodes:32 in
  let keys = sample_keys 256 in
  let moved =
    List.filter
      (fun k ->
        let before = Shard.Ring.shard_of r4 k in
        let after = Shard.Ring.shard_of r5 k in
        if before <> after then
          check_int (k ^ " moved to the new shard only") 4 after;
        before <> after)
      keys
  in
  check_true "some keys moved" (List.length moved > 0);
  check_true "but at most ~K/S"
    (List.length moved <= 2 * (256 / 5))

let test_ring_validation () =
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Ring.create: need at least one shard")
    (fun () -> ignore (Shard.Ring.create ~seed:0 ~shards:0 ~vnodes:4))

(* --- zipf --- *)

let test_zipf_skew_and_range () =
  let z = Workload.Zipf.create ~keys:64 ~theta:0.99 in
  check_true "rank 0 dominates the tail"
    (Workload.Zipf.share z 0 > 4.0 *. Workload.Zipf.share z 63);
  let rng = Sim.Rng.create 5 in
  for _ = 1 to 500 do
    let k = Workload.Zipf.sample z rng in
    check_true "in range" (k >= 0 && k < 64)
  done

let test_zipf_uniform_at_theta_zero () =
  let z = Workload.Zipf.create ~keys:16 ~theta:0.0 in
  for i = 0 to 15 do
    check_true "equal shares"
      (Float.abs (Workload.Zipf.share z i -. (1.0 /. 16.0)) < 1e-9)
  done

(* --- open-loop generator --- *)

let small_wl =
  {
    Workload.Openloop.default_config with
    Workload.Openloop.keys = 16;
    clients = 8;
    ops = 120;
  }

let test_openloop_deterministic_and_sorted () =
  let a = Workload.Openloop.generate small_wl ~seed:3 in
  let b = Workload.Openloop.generate small_wl ~seed:3 in
  check_true "same schedule" (a = b);
  check_int "all ops" 120 (List.length a);
  let sorted = ref true and last = ref 0 in
  List.iter
    (fun (o : Workload.Openloop.op) ->
      if o.at < !last then sorted := false;
      last := o.at;
      check_true "key in range" (o.key >= 0 && o.key < 16);
      check_true "client in range" (o.client >= 0 && o.client < 8))
    a;
  check_true "sorted by arrival" !sorted;
  let c = Workload.Openloop.generate small_wl ~seed:4 in
  check_true "seed matters" (a <> c)

let test_openloop_mix_extremes () =
  let all_reads =
    Workload.Openloop.generate
      { small_wl with Workload.Openloop.write_ratio = 0.0 }
      ~seed:3
  in
  check_true "ratio 0 is all reads"
    (List.for_all
       (fun (o : Workload.Openloop.op) -> o.kind = Workload.Openloop.Read)
       all_reads);
  let all_writes =
    Workload.Openloop.generate
      { small_wl with Workload.Openloop.write_ratio = 1.0 }
      ~seed:3
  in
  check_true "ratio 1 is all writes"
    (List.for_all
       (fun (o : Workload.Openloop.op) -> o.kind = Workload.Openloop.Write)
       all_writes)

(* --- tier --- *)

let small_tier =
  {
    Shard.Tier.default_config with
    Shard.Tier.shards = 2;
    workload = small_wl;
  }

let test_tier_clean_run () =
  let r = Shard.Tier.run small_tier ~seed:21 in
  check_int "all logical ops accounted" 120 r.Shard.Tier.ops;
  check_true "clean" r.Shard.Tier.clean;
  check_true "isolated (vacuously, no chaos)" r.Shard.Tier.isolated;
  List.iter
    (fun (s : Shard.Tier.shard_report) ->
      check_true "no stuck fibers" (s.Shard.Tier.stuck = []);
      check_true "coalescing never exceeds logical ops"
        (s.Shard.Tier.register_writes + s.Shard.Tier.register_reads
        <= s.Shard.Tier.ops))
    r.Shard.Tier.shards;
  check_int "key owners listed" 16 (List.length r.Shard.Tier.key_owners)

let test_tier_json_roundtrip () =
  let r = Shard.Tier.run small_tier ~seed:21 in
  match Shard.Tier.of_json (Shard.Tier.to_json r) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok r' -> check_true "roundtrip preserves the report" (Shard.Tier.matches r r')

let test_tier_replay_matches () =
  let r = Shard.Tier.run small_tier ~seed:22 in
  check_true "replay is bit-identical"
    (Shard.Tier.matches r (Shard.Tier.replay r))

let test_tier_domains_independent () =
  let a = Shard.Tier.run ~domains:1 small_tier ~seed:23 in
  let b = Shard.Tier.run ~domains:2 small_tier ~seed:23 in
  check_true "domains=2 matches domains=1" (Shard.Tier.matches a b)

let chaos_tier =
  {
    small_tier with
    Shard.Tier.shards = 3;
    chaos =
      Some
        {
          Shard.Tier.target = 1;
          injections = [ 80; 200 ];
          crashes =
            [ { Shard.Tier.at = 120; server = 2; down_for = Some 80 } ];
        };
  }

let test_tier_chaos_isolation () =
  let r = Shard.Tier.run chaos_tier ~seed:31 in
  check_true "non-target shards stay clean" r.Shard.Tier.isolated;
  List.iter
    (fun (s : Shard.Tier.shard_report) ->
      if s.Shard.Tier.shard <> 1 then
        check_true
          (Printf.sprintf "shard %d clean" s.Shard.Tier.shard)
          s.Shard.Tier.clean)
    r.Shard.Tier.shards

let test_campaign_isolated () =
  let cfg =
    {
      Chaos.Shard_campaign.default_config with
      Chaos.Shard_campaign.tier = { small_tier with Shard.Tier.shards = 3 };
      target = 2;
    }
  in
  let result = Chaos.Shard_campaign.run cfg ~seed:41 ~trials:2 in
  check_int "all trials ran" 2 (List.length result.Chaos.Shard_campaign.trials);
  check_int "no isolation breaches" 0
    (List.length (Chaos.Shard_campaign.breaches result));
  (* Trial seeds are a pure function of the campaign seed. *)
  List.iteri
    (fun i (t : Chaos.Shard_campaign.trial) ->
      check_int "derived trial seed"
        (Chaos.Shard_campaign.trial_seed ~seed:41 i)
        t.Chaos.Shard_campaign.trial_seed)
    result.Chaos.Shard_campaign.trials

let test_tier_validation () =
  let bad = { small_tier with Shard.Tier.shards = 0 } in
  check_true "invalid config rejected"
    (match Shard.Tier.validate bad with Error _ -> true | Ok () -> false);
  match Shard.Tier.run bad ~seed:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "run accepted an invalid config"

let tests =
  [
    case "ring: deterministic placement" test_ring_deterministic;
    case "ring: seed changes placement" test_ring_seed_matters;
    case "ring: balance with vnodes" test_ring_balance;
    case "ring: minimal remap on add_shard" test_ring_minimal_remap;
    case "ring: validation" test_ring_validation;
    case "zipf: skew and range" test_zipf_skew_and_range;
    case "zipf: uniform at theta 0" test_zipf_uniform_at_theta_zero;
    case "openloop: deterministic, sorted, in range"
      test_openloop_deterministic_and_sorted;
    case "openloop: write-ratio extremes" test_openloop_mix_extremes;
    case "tier: clean fault-free run" test_tier_clean_run;
    case "tier: json roundtrip" test_tier_json_roundtrip;
    case "tier: replay bit-identical" test_tier_replay_matches;
    case "tier: domains-independent" test_tier_domains_independent;
    case "tier: chaos isolation" test_tier_chaos_isolation;
    case "campaign: no breaches, derived seeds" test_campaign_isolated;
    case "tier: config validation" test_tier_validation;
  ]
