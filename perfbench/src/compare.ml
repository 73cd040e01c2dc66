type verdict = Better | Same | Worse | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let ( let* ) = Result.bind

module F = Json_read

(* Positive when [next] is worse than [base]. *)
let worsening better ~base ~next =
  match better with Benchmark.Lower -> next -. base | Higher -> base -. next

let judge ~better ~bound ~base ~next =
  let mb = Stats.median base and mn = Stats.median next in
  (* As a share of [base]. *)
  let worse_by =
    let d = worsening better ~base:mb ~next:mn in
    if mb = 0.0 then if d = 0.0 then 0.0 else Float.copy_sign infinity d
    else d /. Float.abs mb
  in
  let spread = Float.max (Stats.spread base) (Stats.spread next) in
  let all_better =
    let lo a = Array.fold_left Float.min infinity a
    and hi a = Array.fold_left Float.max neg_infinity a in
    match better with
    | Benchmark.Lower -> hi next < lo base
    | Higher -> lo next > hi base
  in
  if spread > bound then if all_better then Better else Unresolved
  else if worse_by > bound then Worse
  else if -.worse_by > bound then Better
  else Same

let judge_exact ~better pairs =
  let moved sign = List.exists (fun (base, next) -> sign *. worsening better ~base ~next > 0.0) pairs in
  if moved 1.0 then Worse else if moved (-1.0) then Better else Same

let exact =
  [
    "shard.op_vticks_p50";
    "shard.op_vticks_p99";
    "kv.op_vticks_p50";
    "kv.op_vticks_p99";
    "kv.set_vticks_p50";
    "kv.get_vticks_p50";
    "registers.msgs_per_op";
    "registers.broadcasts_per_op";
    "registers.msg_bytes_per_op";
    "registers.collect_retries_per_op";
    "ss_transport.pkts_per_msg";
    "mc.unique_states";
    "mc.states";
  ]

type run = {
  workload : string;
  seed : int;
  trace : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let schema = "perfbench/results/v1"

let run_of_json j =
  let* workload = F.string "workload" j in
  let* seed = F.int "seed" j in
  let* trace = F.bool "trace" j in
  let* result = F.field "result" j in
  let* attempted = F.int "attempted" result in
  let* failed = F.int "failed" result in
  let* metrics = F.obj "metrics" result in
  let* metrics =
    F.all_ok (fun (name, m) -> Result.map (fun v -> (name, v)) (F.float "value" m)) metrics
  in
  Ok { workload; seed; trace; attempted; failed; metrics }

let runs_of_results j =
  let* s = F.string "schema" j in
  let* () =
    if String.equal s schema then Ok ()
    else Error (Printf.sprintf "unsupported results schema %S (want %S)" s schema)
  in
  let* runs = F.list "runs" j in
  F.all_ok run_of_json runs

type row = {
  workload : string;
  metric : string;
  base_median : float;
  next_median : float;
  verdict : verdict;
}

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let rows (bench : Benchmark.t) ~base ~next =
  let workloads =
    List.sort_uniq String.compare (List.map (fun (r : run) -> r.workload) base)
  in
  let rows_of workload =
    let mine = List.filter (fun (r : run) -> String.equal r.workload workload) in
    let base = mine base and next = mine next in
    let row metric bs ns verdict =
      {
        workload;
        metric;
        base_median = Stats.median bs;
        next_median = Stats.median ns;
        verdict;
      }
    in
    let bounded (m : Benchmark.metric) =
      let values runs =
        Array.of_list
          (List.filter_map
             (fun (r : run) -> if r.trace then None else List.assoc_opt m.name r.metrics)
             runs)
      in
      let bs = values base and ns = values next in
      match m.bound with
      | Some bound when bs <> [||] && ns <> [||] ->
        Some (row m.name bs ns (judge ~better:m.better ~bound ~base:bs ~next:ns))
      | _ -> None
    in
    let paired ~keep_zero metric better value =
      let pairs =
        List.filter_map
          (fun (b : run) ->
            match
              List.find_opt (fun (n : run) -> n.seed = b.seed && n.trace = b.trace) next
            with
            | None -> None
            | Some n -> (
              match (value b, value n) with
              | Some x, Some y -> Some (x, y)
              | _ -> None))
          base
      in
      if pairs = [] || ((not keep_zero) && List.for_all (fun p -> p = (0.0, 0.0)) pairs)
      then None
      else
        let side f = Array.of_list (List.map f pairs) in
        Some (row metric (side fst) (side snd) (judge_exact ~better pairs))
    in
    List.filter_map bounded bench.end_to_end
    @ Option.to_list
        (paired ~keep_zero:true "fail_ratio" Benchmark.Lower (fun r ->
             Some (ratio r.failed r.attempted)))
    @ List.filter_map
        (fun (m : Benchmark.metric) ->
          if List.mem m.name exact then
            paired ~keep_zero:false m.name m.better (fun r ->
                if r.trace then List.assoc_opt m.name r.metrics else None)
          else None)
        bench.per_layer
  in
  List.concat_map rows_of workloads

let run_record ~workload ~seed ~seconds ~trace result =
  Obs.Json.Obj
    [
      ("workload", Obs.Json.Str workload);
      ("seed", Obs.Json.Int seed);
      ("seconds", Obs.Json.Float seconds);
      ("trace", Obs.Json.Bool trace);
      ("result", result);
    ]

let results_file runs =
  Obs.Json.Obj [ ("schema", Obs.Json.Str schema); ("runs", Obs.Json.List runs) ]
