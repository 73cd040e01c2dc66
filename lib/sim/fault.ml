type target = { name : string; corrupt : Rng.t -> unit }

type process = {
  pname : string;
  crash : unit -> unit;
  recover : Rng.t -> unit;
}

type t = {
  mutable targets : target list; (* newest first *)
  mutable processes : process list; (* newest first *)
}

let create () = { targets = []; processes = [] }

let register t ~name corrupt = t.targets <- { name; corrupt } :: t.targets

let names t = List.rev_map (fun tg -> tg.name) t.targets

let register_process t ~name ~crash ~recover =
  t.processes <- { pname = name; crash; recover } :: t.processes

(* Matching respects dot-separated segment boundaries: "server.1" hits
   "server.1" and "server.1.cell" but never "server.10" — a bare prefix
   must cover whole segments, while a prefix ending in '.' (or the empty
   prefix) matches anything it is a string-prefix of. *)
let matches ~prefix name =
  let pl = String.length prefix and nl = String.length name in
  pl = 0
  || (nl >= pl
      && String.equal (String.sub name 0 pl) prefix
      && (nl = pl || prefix.[pl - 1] = '.' || name.[pl] = '.'))

let inject_matching t ~rng ~prefix =
  let hit = ref 0 in
  List.iter
    (fun tg ->
      if matches ~prefix tg.name then begin
        incr hit;
        tg.corrupt rng
      end)
    (List.rev t.targets);
  !hit

let inject_all t ~rng = inject_matching t ~rng ~prefix:""

let crash_matching t ~prefix =
  let hit = ref 0 in
  List.iter
    (fun p ->
      if matches ~prefix p.pname then begin
        incr hit;
        p.crash ()
      end)
    (List.rev t.processes);
  !hit

let recover_matching t ~rng ~prefix =
  let hit = ref 0 in
  List.iter
    (fun p ->
      if matches ~prefix p.pname then begin
        incr hit;
        p.recover rng
      end)
    (List.rev t.processes);
  !hit

let emit_process_event ~engine ~tag ~prefix ~hit =
  Obs.Metrics.add (Engine.metrics engine) (Printf.sprintf "fault.%s" tag) hit;
  let hub = Engine.hub engine in
  if Obs.Hub.active hub then
    Obs.Hub.emit hub
      (Obs.Event.Fault_injected
         {
           time = Vtime.to_int (Engine.now engine);
           target =
             Printf.sprintf "%s:%s" tag (if prefix = "" then "*" else prefix);
           hits = hit;
         })

let schedule_crash t ~engine ~at ?down_for ~prefix () =
  Engine.schedule_at engine at (fun () ->
      let hit = crash_matching t ~prefix in
      emit_process_event ~engine ~tag:"crash" ~prefix ~hit);
  match down_for with
  | None -> () (* crash-stop: the process never rejoins *)
  | Some d ->
    (* Crash-recovery: split the recovery generator now so the wiped
       state drawn at rejoin time is a function of the schedule, not of
       whatever else the engine did in between. *)
    let rng = Rng.split (Engine.rng engine) in
    Engine.schedule_at engine (Vtime.add at d) (fun () ->
        let hit = recover_matching t ~rng ~prefix in
        emit_process_event ~engine ~tag:"recover" ~prefix ~hit)

let schedule t ~engine ~at ~prefix =
  let rng = Rng.split (Engine.rng engine) in
  Engine.schedule_at engine at (fun () ->
      let hit = inject_matching t ~rng ~prefix in
      Obs.Metrics.add (Engine.metrics engine) "fault.injections" hit;
      let hub = Engine.hub engine in
      if Obs.Hub.active hub then
        Obs.Hub.emit hub
          (Obs.Event.Fault_injected
             {
               time = Vtime.to_int (Engine.now engine);
               target = (if prefix = "" then "*" else prefix);
               hits = hit;
             }))
