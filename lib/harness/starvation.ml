type outcome = {
  starved : bool;
  rounds_used : int;
  returned : Registers.Value.t option;
  params : Registers.Params.t;
  metrics : Obs.Metrics.t;
}

let predicted_starvation ~n ~f ~sync =
  if sync then
    (* f junk + (n-f) correct split two ways: no side reaches f+1 iff
       ceil((n-f)/2) <= f, i.e. n <= 3f. *)
    ((n - f) + 1) / 2 <= f
  else
    (* f junk + (n-2f) sampled correct split two ways (the other f correct
       acks are delayed out of the sample): no side reaches 2f+1 iff
       ceil((n-2f)/2) <= 2f, i.e. n <= 6f. *)
    ((n - (2 * f)) + 1) / 2 <= 2 * f

let far = Script.far

let max_delay = 10

(* The writer is client 100, the reader client 101.  Of the writer's
   request links, the first [f] servers' are immaterial (they are
   Byzantine) and the next [fresh] deliver each write quickly.  The rest
   deliver the initial write and its help broadcast quickly, then every
   later write late: in sync mode timely but maximally slow (the widest
   split window the synchronous model allows), in async mode in flight
   across the whole experiment. *)
let link_delay ~n ~f ~sync ~client ~server ~to_server _rng =
  let sampled_correct = if sync then n - f else n - (2 * f) in
  let fresh = (sampled_correct + 1) / 2 in
  match (client, server, to_server) with
  | 100, s, true when s >= f + fresh ->
    Script.scripted [ 1; 1 ] (if sync then max_delay else far)
  | 101, s, false when (not sync) && s >= n - f ->
    (* Async: the last f correct servers never make it into the reader's
       (n-t)-acknowledgment sample. *)
    Script.scripted [] far
  | _ -> Script.scripted [] 1

let run ~n ~f ?(sync = false) ?(budget = 6) ?(instrument = fun _ -> ()) () =
  if f < 1 || n <= 2 * f then invalid_arg "Starvation.run: need n > 2f >= 2";
  let params =
    if sync then
      Registers.Params.create_unchecked ~n ~f
        ~mode:(Registers.Params.Sync { max_delay; slack = 3 }) ()
    else Registers.Params.create_unchecked ~n ~f ~mode:Registers.Params.Async ()
  in
  let scn = Scenario.create ~link_delay:(link_delay ~n ~f ~sync) ~params () in
  instrument scn.Scenario.engine;
  for s = 0 to f - 1 do
    Byzantine.Adversary.compromise scn.Scenario.adversary s
      Byzantine.Behavior.equivocate
  done;
  let w, r = Workload.regular_pair scn in
  let returned = ref None in
  let writes = if sync then 400 else 2 in
  (* The asynchronous schedule keeps a write pending essentially forever;
     cap the run well past the reader's budget. *)
  ignore
    (Scenario.run_jobs ~until:(Sim.Vtime.of_int (far / 2)) scn
       [
         ( "writer",
           fun () ->
             for i = 1 to writes do
               ignore (Registers.Swsr_regular.write w (Registers.Value.int i))
             done );
         ( "reader",
           fun () ->
             Scenario.sleep scn 15;
             returned :=
               Registers.Outcome.to_option
                 (Registers.Swsr_regular.read ~max_iterations:budget r) );
       ]);
  {
    starved = !returned = None;
    rounds_used = Registers.Swsr_regular.reader_iterations r;
    returned = !returned;
    params;
    metrics = Scenario.metrics scn;
  }
