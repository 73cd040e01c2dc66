(* The observability pipeline: JSON round-trips, the run-report schema
   and its validator, histogram bucketing, the hub's inactive fast path,
   and an end-to-end check that an instrumented deployment actually
   produces per-class traffic counters, op histograms and typed events. *)

open Util

(* --- Json --- *)

let sample_json =
  Obs.Json.Obj
    [
      ("null", Obs.Json.Null);
      ("bool", Obs.Json.Bool true);
      ("int", Obs.Json.Int (-42));
      ("float", Obs.Json.Float 2.5);
      ("integral_float", Obs.Json.Float 3.0);
      ("str", Obs.Json.Str "quote \" backslash \\ newline \n done");
      ( "list",
        Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Str "two"; Obs.Json.Null ] );
      ("empty_obj", Obs.Json.Obj []);
      ("empty_list", Obs.Json.List []);
    ]

let test_json_round_trip () =
  check_true "compact round trip"
    (Obs.Json.parse_exn (Obs.Json.to_string sample_json) = sample_json);
  check_true "pretty round trip"
    (Obs.Json.parse_exn (Obs.Json.to_string_pretty sample_json) = sample_json)

let test_json_int_float_distinction () =
  (* The ".0" marker keeps Int and integral Float distinct across a
     print/parse cycle — report diffs must not flip types run to run. *)
  check_true "int stays int" (Obs.Json.parse_exn "7" = Obs.Json.Int 7);
  check_true "marked float stays float"
    (Obs.Json.parse_exn (Obs.Json.to_string (Obs.Json.Float 7.0))
    = Obs.Json.Float 7.0)

let test_json_parse_errors () =
  check_true "garbage" (Result.is_error (Obs.Json.parse "{nope"));
  check_true "trailing junk" (Result.is_error (Obs.Json.parse "1 2"));
  check_true "ok" (Obs.Json.parse "{\"a\": [1, 2]}" |> Result.is_ok)

(* Trace files carry protocol payload fragments and user-chosen labels
   verbatim; the escaper must keep every byte round-trippable. *)
let test_json_string_escaping () =
  (* Named control characters render as their short escapes... *)
  Alcotest.(check string)
    "named escapes" "\"\\t\\n\\r\""
    (Obs.Json.to_string (Obs.Json.Str "\t\n\r"));
  (* ...the rest of C0 as \u twiddles, lowercase, zero-padded. *)
  Alcotest.(check string)
    "C0 escapes" "\"\\u0000\\u0001\\u001f\""
    (Obs.Json.to_string (Obs.Json.Str "\x00\x01\x1f"));
  Alcotest.(check string)
    "backslash before escape char" "\"a\\\\n\""
    (Obs.Json.to_string (Obs.Json.Str "a\\n"));
  (* Every C0 byte, plus quote and backslash, survives a round trip. *)
  let hostile =
    String.init 0x22 (fun i ->
        if i = 0x20 then '"' else if i = 0x21 then '\\' else Char.chr i)
  in
  check_true "control-character round trip"
    (Obs.Json.parse_exn (Obs.Json.to_string (Obs.Json.Str hostile))
    = Obs.Json.Str hostile);
  (* Multi-byte UTF-8 passes through byte-for-byte, unescaped. *)
  let utf8 = "r\xc3\xa9gulier \xe2\x9c\x93" in
  Alcotest.(check string)
    "utf-8 passthrough"
    ("\"" ^ utf8 ^ "\"")
    (Obs.Json.to_string (Obs.Json.Str utf8));
  check_true "utf-8 round trip"
    (Obs.Json.parse_exn (Obs.Json.to_string (Obs.Json.Str utf8))
    = Obs.Json.Str utf8);
  (* The parser accepts \u escapes our writer never emits. *)
  check_true "parser reads latin-1 \\u escapes"
    (Obs.Json.parse_exn "\"\\u00e9\"" = Obs.Json.Str "\xe9")

(* --- Report schema --- *)

let mk_report () =
  let r = Obs.Report.create ~experiment:"T0" ~seed:3 in
  Obs.Report.set_params r ~n:9 ~f:1 ~mode:"async";
  Obs.Report.add_message_class r ~name:"WRITE" ~sent:10 ~recv:9 ~bytes:170;
  Obs.Report.add_message_class r ~name:"ACK_WRITE" ~sent:9 ~recv:9 ~bytes:99;
  Obs.Report.add_op_summary r ~name:"swsr_atomic.write"
    {
      Obs.Metrics.count = 10;
      mean = 12.0;
      min = 4.0;
      p50 = 11.0;
      p90 = 18.0;
      p95 = 20.0;
      p99 = 22.0;
      p999 = 22.0;
      max = 22.0;
    };
  Obs.Report.set_stabilization r 120;
  Obs.Report.set_counters r [ ("ss.broadcasts", 4) ];
  Obs.Report.add_extra r "note" (Obs.Json.Str "free-form");
  r

let test_report_validates () =
  let j = Obs.Report.to_json (mk_report ()) in
  (match Obs.Report.of_json j with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "expected valid: %s" e);
  (* And it survives serialization. *)
  match Obs.Report.of_json (Obs.Json.parse_exn (Obs.Json.to_string j)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "round-tripped report invalid: %s" e

let test_report_write_and_reparse () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "stabreg-obs-test" in
  let r = mk_report () in
  let path = Filename.concat dir (Obs.Report.experiment r ^ ".json") in
  Obs.File.write path (Obs.Json.to_string_pretty (Obs.Report.to_json r) ^ "\n");
  check_true "named after the experiment"
    (Filename.basename path = "T0.json");
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  match Obs.Report.of_json (Obs.Json.parse_exn s) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "written report invalid: %s" e

let test_report_rejects () =
  let valid = Obs.Report.to_json (mk_report ()) in
  let strip key j =
    match j with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj (List.filter (fun (k, _) -> k <> key) fields)
    | _ -> j
  in
  let replace key v j =
    match j with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj (List.map (fun (k, old) -> (k, if k = key then v else old)) fields)
    | _ -> j
  in
  check_true "missing schema"
    (Result.is_error (Obs.Report.of_json (strip "schema" valid)));
  check_true "wrong schema string"
    (Result.is_error
       (Obs.Report.of_json (replace "schema" (Obs.Json.Str "v0") valid)));
  check_true "missing params"
    (Result.is_error (Obs.Report.of_json (strip "params" valid)));
  check_true "stabilization must be int or null"
    (Result.is_error
       (Obs.Report.of_json
          (replace "stabilization_time" (Obs.Json.Str "soon") valid)));
  check_true "non-object" (Result.is_error (Obs.Report.of_json (Obs.Json.Int 1)))

(* --- histogram buckets --- *)

let test_bucket_boundaries () =
  (* Bucket 0 holds [0,1); bucket i>=1 holds [2^((i-1)/4), 2^(i/4)). *)
  check_int "zero" 0 (Obs.Metrics.bucket_index 0.0);
  check_int "sub-one" 0 (Obs.Metrics.bucket_index 0.99);
  check_int "one" 1 (Obs.Metrics.bucket_index 1.0);
  check_int "negative clamps" 0 (Obs.Metrics.bucket_index (-5.0));
  (* Every bucket's lower bound must index back into that bucket, and a
     hair below it into the previous one. *)
  for i = 1 to Obs.Metrics.num_buckets - 2 do
    let lo, hi = Obs.Metrics.bucket_bounds i in
    check_int (Printf.sprintf "lo of %d" i) i (Obs.Metrics.bucket_index lo);
    check_int
      (Printf.sprintf "below hi of %d" i)
      i
      (Obs.Metrics.bucket_index (hi *. 0.999));
    check_true (Printf.sprintf "bounds ordered %d" i) (lo < hi)
  done;
  let _, last_hi = Obs.Metrics.bucket_bounds (Obs.Metrics.num_buckets - 1) in
  check_true "last bucket open" (last_hi = infinity)

(* [bucket_index] searches a table of the bucket bounds; pin it against
   the definition, [bucket_bounds], on every integer up to 2^21 (latencies
   in ticks are integers) and on every bound and its float neighbours. *)
let test_bucket_index_definition () =
  let module M = Obs.Metrics in
  let mismatches = ref [] in
  let expect v i =
    if M.bucket_index v <> i then mismatches := (v, i) :: !mismatches
  in
  expect 0.0 0;
  let bucket = ref 1 in
  for k = 1 to 1 lsl 21 do
    let v = float_of_int k in
    while v >= snd (M.bucket_bounds !bucket) do
      incr bucket
    done;
    expect v !bucket
  done;
  for i = 1 to M.num_buckets - 1 do
    let lo, _ = M.bucket_bounds i in
    expect (Float.pred lo) (i - 1);
    expect lo i;
    expect (Float.succ lo) i
  done;
  match !mismatches with
  | [] -> ()
  | (v, i) :: _ ->
    Alcotest.failf "%d mismatches, e.g. %h: want bucket %d, got %d"
      (List.length !mismatches) v i (M.bucket_index v)

let test_histogram_stats () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "op.t.read" in
  check_int "empty count" 0 (Obs.Metrics.hist_count h);
  check_true "empty quantile" (Obs.Metrics.quantile h 0.5 = 0.0);
  List.iter (Obs.Metrics.observe h) [ 1.0; 2.0; 4.0; 8.0; 100.0 ];
  check_int "count" 5 (Obs.Metrics.hist_count h);
  check_true "min exact" (Obs.Metrics.hist_min h = 1.0);
  check_true "max exact" (Obs.Metrics.hist_max h = 100.0);
  check_true "q0 is min" (Obs.Metrics.quantile h 0.0 = 1.0);
  check_true "q1 is max" (Obs.Metrics.quantile h 1.0 = 100.0);
  let p50 = Obs.Metrics.quantile h 0.5 in
  (* Within the containing log bucket's ~19% relative width of 4. *)
  check_true "p50 near 4" (p50 >= 3.0 && p50 <= 5.0);
  let s = Obs.Metrics.summary_of_histogram h in
  check_int "summary count" 5 s.Obs.Metrics.count;
  check_true "summary min" (s.Obs.Metrics.min = 1.0);
  check_true "summary max" (s.Obs.Metrics.max = 100.0)

(* Snapshot accessors sort by key, so report and debug output never
   depend on hash-table layout (stablint R1 pin). *)
let test_metrics_snapshots_sorted () =
  let keys = [ "zeta"; "alpha"; "mu"; "beta"; "omega" ] in
  let snapshot order =
    let m = Obs.Metrics.create () in
    List.iter
      (fun k ->
        Obs.Metrics.incr m k;
        Obs.Metrics.observe_named m k 1.0)
      order;
    ( List.map fst (Obs.Metrics.counters m),
      List.map fst (Obs.Metrics.histograms m) )
  in
  let sorted = List.sort String.compare keys in
  let c1, h1 = snapshot keys in
  let c2, h2 = snapshot (List.rev keys) in
  Alcotest.(check (list string)) "counters sorted" sorted c1;
  Alcotest.(check (list string)) "histograms sorted" sorted h1;
  Alcotest.(check (list string)) "counters order-independent" c1 c2;
  Alcotest.(check (list string)) "histograms order-independent" h1 h2

(* --- hub fast path --- *)

let test_hub_inactive_fast_path () =
  let hub = Obs.Hub.create () in
  check_false "inactive" (Obs.Hub.active hub);
  Obs.Hub.emit hub (Obs.Event.Mark { time = 0; label = "x" });
  let events = Obs.Hub.record hub in
  check_true "active" (Obs.Hub.active hub);
  check_int "nothing kept from before the attach" 0 (List.length (events ()));
  Obs.Hub.emit hub (Obs.Event.Mark { time = 1; label = "y" });
  check_int "event delivered" 1 (List.length (events ()));
  (* A second sink sees the events from its attach on; the first keeps
     seeing every one. *)
  let times = ref [] in
  Obs.Hub.attach hub (fun e -> times := Obs.Event.time e :: !times);
  Obs.Hub.emit hub (Obs.Event.Mark { time = 2; label = "z" });
  Alcotest.(check (list int)) "second sink" [ 2 ] !times;
  check_int "first sink still delivered" 2 (List.length (events ()))

let test_op_ids_monotonic () =
  let hub = Obs.Hub.create () in
  let a = Obs.Hub.next_op_id hub in
  let b = Obs.Hub.next_op_id hub in
  check_true "fresh ids" (b > a)

(* --- the instrumented stack, end to end --- *)

let test_instrumented_scenario () =
  let scn = async_scenario () in
  let events = Obs.Hub.record (Harness.Scenario.hub scn) in
  let w =
    Registers.Swsr_atomic.writer ~net:scn.Harness.Scenario.net ~client_id:100
      ~inst:0 ()
  in
  let r =
    Registers.Swsr_atomic.reader ~net:scn.Harness.Scenario.net ~client_id:101
      ~inst:0 ()
  in
  run_fiber scn "wr" (fun () ->
      for i = 1 to 5 do
        ignore (Registers.Swsr_atomic.write w (int_value i));
        ignore (Registers.Swsr_atomic.read r)
      done);
  let m = Harness.Scenario.metrics scn in
  (* Per-class traffic: 5 writes to 9 servers each. *)
  check_int "WRITE sent" 45 (Obs.Metrics.counter m "msg.sent.WRITE.count");
  check_int "WRITE recv" 45 (Obs.Metrics.counter m "msg.recv.WRITE.count");
  check_true "WRITE bytes accounted"
    (Obs.Metrics.counter m "msg.sent.WRITE.bytes" > 0);
  check_true "acks flowed back"
    (Obs.Metrics.counter m "msg.recv.ACK_WRITE.count" > 0);
  (* Op spans land in per-register histograms. *)
  let wh = Obs.Metrics.histogram m "op.swsr_atomic.write" in
  let rh = Obs.Metrics.histogram m "op.swsr_atomic.read" in
  check_int "write spans" 5 (Obs.Metrics.hist_count wh);
  check_int "read spans" 5 (Obs.Metrics.hist_count rh);
  check_true "latencies positive" (Obs.Metrics.hist_min wh > 0.0);
  (* Typed events reached the sink, invokes and returns pair up. *)
  let evs = events () in
  let count p = List.length (List.filter p evs) in
  check_int "op invokes" 10
    (count (function Obs.Event.Op_invoke _ -> true | _ -> false));
  check_int "op returns" 10
    (count (function Obs.Event.Op_return _ -> true | _ -> false));
  check_true "sends observed"
    (count (function Obs.Event.Send _ -> true | _ -> false) > 0);
  check_true "recvs observed"
    (count (function Obs.Event.Recv _ -> true | _ -> false) > 0);
  (* Each event serializes to one JSON object. *)
  List.iter
    (fun e ->
      match Obs.Json.parse (Obs.Json.to_string (Obs.Event.to_json e)) with
      | Ok (Obs.Json.Obj _) -> ()
      | Ok _ -> Alcotest.fail "event JSON not an object"
      | Error msg -> Alcotest.failf "event JSON unparsable: %s" msg)
    evs

let test_uninstrumented_scenario_still_counts () =
  (* No sink attached: events are skipped but metrics still accumulate. *)
  let scn = async_scenario () in
  let w =
    Registers.Swsr_atomic.writer ~net:scn.Harness.Scenario.net ~client_id:100
      ~inst:0 ()
  in
  run_fiber scn "w" (fun () ->
      ignore (Registers.Swsr_atomic.write w (int_value 1)));
  let m = Harness.Scenario.metrics scn in
  check_int "WRITE sent" 9 (Obs.Metrics.counter m "msg.sent.WRITE.count");
  check_int "write span" 1
    (Obs.Metrics.hist_count (Obs.Metrics.histogram m "op.swsr_atomic.write"))

let tests =
  [
    case "json round trip" test_json_round_trip;
    case "json int/float distinction" test_json_int_float_distinction;
    case "json parse errors" test_json_parse_errors;
    case "json string escaping edge cases" test_json_string_escaping;
    case "report validates" test_report_validates;
    case "report write + reparse" test_report_write_and_reparse;
    case "report rejects malformed" test_report_rejects;
    case "histogram bucket boundaries" test_bucket_boundaries;
    case "histogram bucket index matches its definition"
      test_bucket_index_definition;
    case "histogram stats" test_histogram_stats;
    case "metric snapshots are key-sorted" test_metrics_snapshots_sorted;
    case "hub inactive fast path" test_hub_inactive_fast_path;
    case "op ids monotonic" test_op_ids_monotonic;
    case "instrumented scenario" test_instrumented_scenario;
    case "metrics without sinks" test_uninstrumented_scenario_still_counts;
  ]
