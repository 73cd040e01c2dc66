(* TRACE: a regular-register workload crossed by a transient-corruption
   burst, with full causal tracing: pick one interesting read (the first
   one issued after the burst, falling back to the slowest), reconstruct
   its causal tree from the span graph, and print a per-phase latency
   breakdown.  Optional exports: the whole run as a stabreg/trace/v1
   JSONL file and/or a Perfetto-loadable Chrome trace_event JSON.

     dune exec bin/experiments.exe -- trace --seed 3 --out t.jsonl --chrome c.json
*)

let run ~seed ~out ~chrome =
  let fault_at = 300 in
  let params =
    Registers.Params.create_exn ~n:9 ~f:1 ~mode:Registers.Params.Async ()
  in
  let scn = Harness.Scenario.create ~seed ~params () in
  let mem, recorded = Obs.Sink.memory () in
  Obs.Hub.attach (Harness.Scenario.hub scn) mem;
  let w, r = Harness.Workload.regular_pair scn in
  Harness.Scenario.register_port scn
    (Registers.Swsr_regular.writer_port w);
  Harness.Scenario.register_port scn
    (Registers.Swsr_regular.reader_port r);
  (* The transient-corruption window: every registered server target
     (cells, helping state) is scrambled mid-workload. *)
  Sim.Fault.schedule scn.Harness.Scenario.fault
    ~engine:scn.Harness.Scenario.engine
    ~at:(Sim.Vtime.of_int fault_at) ~prefix:"server.";
  let tally = Harness.Workload.tally () in
  Common.run_jobs scn
    [
      ( "writer",
        fun () ->
          Harness.Workload.writer_job scn ~tally
            ~write:(Registers.Swsr_regular.write w)
            ~count:20 ~gap:(Harness.Workload.gap 5 25) () );
      ( "reader",
        fun () ->
          Harness.Workload.reader_job scn ~tally
            ~read:(fun () -> Registers.Swsr_regular.read r)
            ~count:20 ~gap:(Harness.Workload.gap 5 25) () );
    ];
  let events = recorded () in
  Printf.printf
    "swsr_regular workload, n=9 t=1, transient server corruption at \
     t=%d\n"
    fault_at;
  Harness.Report.kv
    [
      ( "virtual time",
        string_of_int (Sim.Vtime.to_int (Harness.Scenario.now scn)) );
      ("events", string_of_int (List.length events));
      ( "spans",
        string_of_int
          (Obs.Trace_ctx.allocated
             (Sim.Engine.spans scn.Harness.Scenario.engine)) );
      ( "messages delivered",
        string_of_int (Harness.Scenario.messages_sent scn) );
    ];
  print_newline ();
  (* One row per completed read: (invoke, return, span). *)
  let reads =
    List.filter_map
      (fun e ->
        match e with
        | Obs.Event.Op_invoke { time; id; op = `Read; span; _ } ->
          let ret =
            List.find_map
              (fun e' ->
                match e' with
                | Obs.Event.Op_return { time = rt; id = rid; _ }
                  when rid = id -> Some rt
                | Obs.Event.Op_return _ | Obs.Event.Op_invoke _
                | Obs.Event.Send _ | Obs.Event.Recv _ | Obs.Event.Drop _
                | Obs.Event.Phase _ | Obs.Event.Fault_injected _
                | Obs.Event.Stabilized _ | Obs.Event.Mark _ -> None)
              events
          in
          Option.map (fun rt -> (time, rt, span)) ret
        | Obs.Event.Op_invoke _ | Obs.Event.Op_return _ | Obs.Event.Send _
        | Obs.Event.Recv _ | Obs.Event.Drop _ | Obs.Event.Phase _
        | Obs.Event.Fault_injected _ | Obs.Event.Stabilized _
        | Obs.Event.Mark _ -> None)
      events
  in
  let target =
    match
      List.find_opt (fun (inv, _, _) -> inv >= fault_at) reads
    with
    | Some pick ->
      Printf.printf "picked: first read invoked after the corruption \
                     burst\n";
      Some pick
    | None ->
      (match
         List.fold_left
           (fun acc (inv, ret, span) ->
             match acc with
             | Some (i, r2, _) when r2 - i >= ret - inv -> acc
             | Some _ | None -> Some (inv, ret, span))
           None reads
       with
      | Some pick ->
        Printf.printf "picked: slowest read of the run\n";
        Some pick
      | None -> None)
  in
  (match target with
  | None -> Printf.printf "no completed read to trace\n"
  | Some (inv, ret, span) -> (
    Printf.printf "read invoked t=%d, returned t=%d (%d ticks)\n\n" inv
      ret (ret - inv);
    match
      Obs.Tracefile.tree_for events ~trace:span.Obs.Trace_ctx.trace
    with
    | None -> Printf.printf "span %d: no causal tree found\n" span.Obs.Trace_ctx.id
    | Some t ->
      Format.printf "causal tree:@.%a@." Obs.Tracefile.pp_tree t;
      Format.printf "latency breakdown:@.%a@." Obs.Tracefile.pp_breakdown
        (Obs.Tracefile.breakdown t)));
  (match out with
  | None -> ()
  | Some path ->
    let buf = Buffer.create 65536 in
    Buffer.add_string buf
      (Obs.Json.to_string
         (Obs.Tracefile.header ~experiment:"TRACE" ~seed));
    Buffer.add_char buf '\n';
    List.iter
      (fun e ->
        Buffer.add_string buf (Obs.Json.to_string (Obs.Event.to_json e));
        Buffer.add_char buf '\n')
      events;
    Common.write_file path (Buffer.contents buf);
    Printf.printf "trace written to %s (%s)\n" path
      Obs.Tracefile.schema_version);
  match chrome with
  | None -> Ok ()
  | Some path -> (
    let j = Obs.Chrome_trace.to_json events in
    match Obs.Chrome_trace.validate j with
    | Error e -> Error ("chrome export failed validation: " ^ e)
    | Ok () ->
      Common.write_artifact path j;
      Printf.printf "chrome trace written to %s\n" path;
      Ok ())
