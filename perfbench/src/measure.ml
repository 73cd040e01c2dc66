type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (Benchmark.metric * float option) list;
  notes : string list;
}

let now = Unix.gettimeofday

type stat = Median | Pct of float | Count

(* Per-layer metrics derived from span durations: metric, span names,
   statistic, scale from seconds. *)
let from_spans =
  [
    ("workload.generate_s", [ "workload.generate" ], Median, 1.0);
    ("shard.ring_build_s", [ "shard.ring_build" ], Median, 1.0);
    ("shard.run_s", [ "shard.tier_run" ], Median, 1.0);
    ("kv.set_wall_us_p50", [ "kv.set" ], Pct 0.5, 1e6);
    ("kv.set_wall_us_p99", [ "kv.set" ], Pct 0.99, 1e6);
    ("kv.get_wall_us_p50", [ "kv.get" ], Pct 0.5, 1e6);
    ("kv.get_wall_us_p99", [ "kv.get" ], Pct 0.99, 1e6);
    ("kv.op_wall_p999_us", [ "kv.set"; "kv.get" ], Pct 0.999, 1e6);
    ("kv.op_wall_samples", [ "kv.set"; "kv.get" ], Count, 1.0);
    ("oracles.check_s", [ "oracles.check" ], Median, 1.0);
    ("chaos.trial_ms_p50", [ "chaos.trial" ], Pct 0.5, 1e3);
    ("chaos.trial_ms_p90", [ "chaos.trial" ], Pct 0.9, 1e3);
  ]

let span_metrics spans =
  List.filter_map
    (fun (metric, names, stat, scale) ->
      let d = Spans.durations spans names in
      let n = Array.length d in
      if n = 0 then None
      else
        let value, note =
          match stat with
          | Median -> (Some (Stats.median d), Printf.sprintf "median of %d" n)
          | Count -> (Some (float_of_int n), "")
          | Pct p -> (
            match Stats.percentile d p with
            | Some v -> (Some v, Printf.sprintf "%d samples" n)
            | None ->
              (None, Printf.sprintf "unsupported: %d samples" n))
        in
        Some (metric, Option.map (fun v -> v *. scale) value, note))
    from_spans

(* 0 only when a failed check stopped the run before a round of the kind
   completed; such a result is marked incorrect. *)
let median_list l = if l = [] then 0.0 else Stats.median (Array.of_list l)

(* Every timing is scaled by [Reference.scale] with the reference timed
   next to it, which takes out most of the host's speed: on a shared
   2-vCPU VM the shard-zipf set-up of one seed read 3.9 to 4.9 ms in 24
   processes, and 4.0 to 4.3 ms scaled.  A major collection on either
   side keeps the program's garbage out of the reference's time and the
   reference's out of the program's.  ([Gc.full_major] raised the top
   heap of OCaml 5.1 manyfold.) *)
let reference_s ~runs =
  Gc.major ();
  let t = Stats.median (Array.init runs (fun _ -> Reference.time ())) in
  Gc.major ();
  t

let between_rounds = 3

(* Set-up is repeated until it has taken [setup_seconds] (at least
   [min_samples] samples), so that even a set-up of nanoseconds reports a
   steady median.  A sample times a batch of set-ups, doubled from one
   until it takes [batch_seconds], so the microsecond clock does not
   round it, and is scaled by the reference timed just before it. *)
let setup_seconds = 1.0

let min_samples = 5

let batch_seconds = 0.002

let max_batch = 1 lsl 20

let time_setups (w : Workloads.t) ~seed ~size =
  let timed n =
    let t0 = now () in
    for _ = 1 to n do
      let (_ : unit -> Workloads.round) = w.setup ~seed ~size ~spans:None in
      ()
    done;
    (now () -. t0) /. float_of_int n
  in
  let rec calibrate n =
    if n >= max_batch || timed n *. float_of_int n >= batch_seconds then n
    else calibrate (2 * n)
  in
  let batch = calibrate 1 in
  let start = now () in
  let rec go acc n =
    if n >= min_samples && now () -. start >= setup_seconds then acc
    else
      let scale = Reference.scale ~reference_s:(reference_s ~runs:1) in
      let raw = timed batch in
      go ((raw *. scale, raw) :: acc) (n + 1)
  in
  List.split (go [] 0)

let run ?size (bench : Benchmark.t) (w : Workloads.t) ~seed ~seconds ~trace =
  let size = Option.value size ~default:w.default_size in
  let spans = Spans.create () in
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let units = ref 0 in
  (* One round: set it up, then run and time it.  Returns the round, its
     units per second and its GC counts; [None] if it raised. *)
  let play ~op ~traced =
    let sp = if traced then Some spans else None in
    let wrap name f =
      match sp with None -> f () | Some t -> Spans.root t ~op ~name f
    in
    try
      let go = wrap "setup" (fun () -> w.setup ~seed ~size ~spans:sp) in
      let t1 = now () in
      let minor0 = Gc.minor_words () in
      let major0 = (Gc.quick_stat ()).Gc.major_collections in
      let r = wrap "round" go in
      let t2 = now () in
      let minor = Gc.minor_words () -. minor0 in
      let majors = (Gc.quick_stat ()).Gc.major_collections - major0 in
      units := r.units;
      attempted := !attempted + r.units;
      failed := !failed + r.failed;
      errors := r.errors;
      Some (r, float_of_int r.units /. (t2 -. t1), minor, majors)
    with e ->
      errors := [ "raised " ^ Printexc.to_string e ];
      None
  in
  (* The warm-up round fills the heap and the caches and is not timed.
     The peak heap is read right after it, before the reference or the
     repeated set-ups touch the heap: it is what one set-up and one round
     need, and it repeats for a seed. *)
  ignore (play ~op:0 ~traced:false);
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  (* Warm the reference up. *)
  let (_ : float) = reference_s ~runs:3 in
  let setups, raw_setups =
    if trace || !errors <> [] then ([], []) else time_setups w ~seed ~size
  in
  let rates = ref [] and raw_rates = ref [] and traced_rates = ref [] in
  let layer = Hashtbl.create 64 in
  let minor = ref [] and majors = ref [] in
  (* The reference is timed between rounds, [between_rounds] times; a
     round is scaled by the mean of the medians before and after it. *)
  let before = ref (reference_s ~runs:between_rounds) in
  let references = ref [] in
  let rounds = ref 0 in
  let start = now () in
  (* Two rounds at least; with [trace] they alternate untraced and
     traced, so both see the same machine state. *)
  while !errors = [] && (!rounds < 2 || now () -. start < seconds) do
    let traced = trace && !rounds mod 2 = 1 in
    (match play ~op:(!rounds + 1) ~traced with
    | None -> ()
    | Some (r, raw, minor_words, major) ->
      let after = reference_s ~runs:between_rounds in
      let rate = raw /. Reference.scale ~reference_s:((!before +. after) /. 2.0) in
      before := after;
      if traced then begin
        traced_rates := rate :: !traced_rates;
        List.iter
          (fun (name, v) ->
            Hashtbl.replace layer name
              (v :: Option.value ~default:[] (Hashtbl.find_opt layer name)))
          r.layer
      end
      else begin
        (* Sampled in untraced rounds, so the tracer's own allocation
           and the [Sim.Engine.step] loop of traced rounds are not
           counted. *)
        rates := rate :: !rates;
        raw_rates := raw :: !raw_rates;
        references := after :: !references;
        minor := (minor_words /. float_of_int (max 1 r.units)) :: !minor;
        majors := float_of_int major :: !majors
      end);
    incr rounds
  done;
  let untraced = List.length !rates in
  let metrics, notes =
    if not trace then
      ( [
          ("setup_s", median_list setups);
          ("ops_per_s", median_list !rates);
          ("peak_heap_mb", float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6);
        ],
        [
          ( "setup_s",
            Printf.sprintf "median of %d set-up samples, scaled; %.6g s unscaled"
              (List.length setups) (median_list raw_setups) );
          ( "ops_per_s",
            Printf.sprintf "median of %d rounds of %d units, scaled; %.6g 1/s unscaled"
              untraced !units (median_list !raw_rates) );
          ( "reference",
            Printf.sprintf "median %.4g ms between rounds, nominal %g ms"
              (median_list !references *. 1e3) (Reference.nominal_s *. 1e3) );
        ] )
    else
      let spanned = span_metrics spans in
      let observed =
        Hashtbl.fold (fun name vs acc -> (name, median_list vs) :: acc) layer []
        @ List.filter_map (fun (m, v, _) -> Option.map (fun v -> (m, v)) v) spanned
        @ [
            ("gc.minor_words_per_op", median_list !minor);
            ("gc.major_collections", median_list !majors);
            ( "trace_overhead_pct",
              let u = median_list !rates in
              if u = 0.0 then 0.0 else (u -. median_list !traced_rates) /. u *. 100.0 );
          ]
      in
      ( observed,
        List.filter_map
          (fun (m, _, note) -> if note = "" then None else Some (m, note))
          spanned )
  in
  let listed = if trace then bench.per_layer else bench.end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : Benchmark.metric) -> m.name = name) listed) then
        invalid_arg
          (Printf.sprintf "Measure.run: %s is not a %s metric of BENCHMARK.json" name
             (if trace then "per_layer" else "end_to_end")))
    metrics;
  ( {
    workload = w.name;
    correct = !errors = [] && !attempted > 0;
    attempted = !attempted;
    failed = !failed;
    errors = !errors;
    metrics =
      List.map (fun (m : Benchmark.metric) -> (m, List.assoc_opt m.name metrics)) listed;
    notes =
      List.map (fun (name, note) -> Printf.sprintf "%s: %s" name note) notes;
  },
    spans )

let to_json r =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool r.correct);
      ("attempted", Obs.Json.Int r.attempted);
      ("failed", Obs.Json.Int r.failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun ((m : Benchmark.metric), v) ->
               ( m.name,
                 Obs.Json.Obj
                   [
                     ("value", Obs.Json.Float (Option.value ~default:0.0 v));
                     ("unit", Obs.Json.Str m.unit);
                   ] ))
             r.metrics) );
    ]

let pp fmt r =
  Format.fprintf fmt "%s: %s, %d attempted, %d failed@." r.workload
    (if r.correct then "correct" else "INCORRECT")
    r.attempted r.failed;
  List.iter (fun e -> Format.fprintf fmt "  check failed: %s@." e) r.errors;
  List.iter
    (fun ((m : Benchmark.metric), v) ->
      let v = match v with Some v -> Printf.sprintf "%16.6g" v | None -> Printf.sprintf "%16s" "-" in
      Format.fprintf fmt "  %-34s %s %-6s (%s is better)@." m.name v m.unit
        (Benchmark.better_to_string m.better))
    r.metrics;
  List.iter (fun n -> Format.fprintf fmt "  note: %s@." n) r.notes
