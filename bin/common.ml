(* Shared wiring for the experiment drivers. *)

open Registers

let async_params ~n ~f = Params.create_unchecked ~n ~f ~mode:Params.Async ()

(* --- artifact files --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [open_out], creating missing parent directories first. *)
let open_out_mkdir path =
  let parent = Filename.dirname path in
  if parent <> "" && parent <> "." then Obs.Report.mkdir_p parent;
  open_out path

(* Writes [s] verbatim; callers supply any trailing newline. *)
let write_file path s =
  let oc = open_out_mkdir path in
  output_string oc s;
  close_out oc

(* Parse an artifact file and decode it; errors are prefixed with the
   path. *)
let read_artifact path decode =
  match Obs.Json.parse (read_file path) with
  | Error e -> Error (Printf.sprintf "%s: parse error: %s" path e)
  | Ok j -> Result.map_error (Printf.sprintf "%s: %s" path) (decode j)

let write_artifact path j =
  write_file path (Obs.Json.to_string_pretty j ^ "\n")

let write_profile path r =
  write_artifact path (Obs.Profile.to_json r);
  Printf.printf "profile written to %s (%s)\n" path Obs.Profile.schema_version

(* --- run reports and trace sinks (--json / --trace-out) --- *)

let json_dir : string option ref = ref None

let trace_out : string option ref = ref None

let current_report : Obs.Report.t option ref = ref None

(* Drivers sweep many configurations; the report captures the first one
   observed (the headline deployment), so repeated observe calls within
   one driver are no-ops. *)
let observed = ref false

let trace_channel : out_channel option ref = ref None

(* Header metadata for the stabreg/trace/v1 artifact; set by [with_report]
   before any sink opens the file. *)
let trace_meta : (string * int) ref = ref ("unknown", 0)

let attach_trace_sink hub =
  match !trace_out with
  | None -> ()
  | Some path ->
    let oc =
      match !trace_channel with
      | Some oc -> oc
      | None ->
        let oc = open_out_mkdir path in
        let experiment, seed = !trace_meta in
        output_string oc
          (Obs.Json.to_string (Obs.Tracefile.header ~experiment ~seed));
        output_char oc '\n';
        trace_channel := Some oc;
        oc
    in
    Obs.Hub.attach hub
      (Obs.Sink.jsonl
         ~flush:(fun () -> flush oc)
         (fun line -> output_string oc line))

let close_trace () =
  match !trace_channel with
  | Some oc ->
    close_out oc;
    trace_channel := None
  | None -> ()

let report () = !current_report

let first_observation () = !current_report <> None && not !observed

(* The first observation of a run fills the report; later ones are
   no-ops. *)
let observe_metrics ?params metrics =
  match !current_report with
  | Some r when not !observed ->
    observed := true;
    (match params with
    | Some (p : Params.t) when not (Obs.Report.has_params r) ->
      Obs.Report.set_params r ~n:p.n ~f:p.f
        ~mode:
          (match p.mode with Params.Async -> "async" | Params.Sync _ -> "sync")
    | Some _ | None -> ());
    Obs.Report.observe_metrics r metrics
  | Some _ | None -> ()

let observe_scn scn =
  observe_metrics
    ~params:(Net.params scn.Harness.Scenario.net)
    (Harness.Scenario.metrics scn)

let set_stabilization ticks =
  match !current_report with
  | Some r -> Obs.Report.set_stabilization r ticks
  | None -> ()

let add_extra key v =
  match !current_report with
  | Some r -> Obs.Report.add_extra r key v
  | None -> ()

(* Run [f] under a fresh run report named [exp], written to [json_dir]
   (when set) after [f] returns; the result is [f]'s. *)
let with_report ~exp ~seed f =
  let r = Obs.Report.create ~experiment:exp ~seed in
  current_report := Some r;
  observed := false;
  if !trace_channel = None then trace_meta := (exp, seed);
  Fun.protect
    ~finally:(fun () -> current_report := None)
    (fun () ->
      let result = f () in
      (match !json_dir with
      | Some dir ->
        let path = Obs.Report.write ~dir r in
        Printf.printf "\n[%s] report written to %s\n" exp path
      | None -> ());
      result)

(* Trace and observe a deployment: the hook every campaign, sweep and
   replay hands its runner. *)
let observe_scenario scn =
  attach_trace_sink (Harness.Scenario.hub scn);
  observe_scn scn

(* [observe_scenario] for the first deployment only: a sweep's headline
   run. *)
let on_first_scenario () =
  let first = ref true in
  fun scn ->
    if !first then begin
      first := false;
      observe_scenario scn
    end

(* A replay's [show] when both sides are the same kind of report. *)
let show_sides print recorded replayed =
  Printf.printf "recorded:\n";
  print recorded;
  Printf.printf "replayed:\n";
  print replayed

(* Replay the artifact at [path]: decode it, re-execute it with every
   deployment traced and observed, let [show] print both sides, and
   record the artifact plus [extra] under [key] in the run report.
   [Ok replayed] when [same] holds; [what] names what had to match. *)
let replay_artifact ~key ~decode ~replay ~show ~same ~extra ~what path =
  match read_artifact path decode with
  | Error _ as e -> e
  | Ok recorded ->
    let replayed = replay ?on_scenario:(Some observe_scenario) recorded in
    show recorded replayed;
    let same = same recorded replayed in
    add_extra key
      (Obs.Json.Obj
         (("artifact", Obs.Json.Str path) :: extra recorded replayed ~same));
    if same then begin
      Printf.printf "replay reproduced %s\n" what;
      Ok replayed
    end
    else Error ("replay did NOT reproduce " ^ what)

let scenario ?(seed = 1) ?delay ?medium ~params () =
  let scn = Harness.Scenario.create ~seed ?delay ?medium ~params () in
  attach_trace_sink (Harness.Scenario.hub scn);
  scn

(* Spawn jobs, run the engine, and let the watchdog turn any silent hang
   into a diagnosed deadlock listing each wedged fiber's suspension
   point. *)
let run_jobs scn jobs =
  let handles =
    List.map (fun (name, f) -> (name, Sim.Fiber.spawn ~name f)) jobs
  in
  Harness.Scenario.run scn;
  Harness.Scenario.check_jobs handles

(* One fiber that writes [i] then reads, for i = 1..[ops], on a SWSR
   atomic register. *)
let run_alternating scn w r ~ops =
  run_jobs scn
    [
      ( "wr",
        fun () ->
          for i = 1 to ops do
            ignore
              (Harness.Scenario.record scn ~proc:"writer"
                 ~kind:Oracles.History.Write (fun () ->
                   ignore (Swsr_atomic.write w (Value.int i));
                   Some (Value.int i)));
            ignore
              (Harness.Scenario.record scn ~proc:"reader"
                 ~kind:Oracles.History.Read (fun () ->
                   Outcome.to_option (Swsr_atomic.read r)))
          done );
    ]

let value_str = function
  | Some v -> Value.to_string v
  | None -> "-"

let bool_str b = if b then "yes" else "no"
