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

let scripted = Script.scripted

let far = Script.far

(* Link-creation order (see Net.add_client): the writer's port first
   (n client->server links, then n server->client), then the reader's. *)
let build_link_delay ~n ~f ~sync =
  let max_delay = 10 in
  let sampled_correct = if sync then n - f else n - (2 * f) in
  let fresh = (sampled_correct + 1) / 2 in
  (* Servers f .. f+fresh-1 receive each write quickly; the rest of the
     correct servers late. *)
  let call = ref 0 in
  fun _rng ->
    incr call;
    let c = !call in
    if c <= n then begin
      (* writer -> server (c-1) *)
      let server = c - 1 in
      if server < f then scripted [] 1 (* Byzantine: immaterial *)
      else if server < f + fresh then scripted [] 1
      else if sync then
        (* Timely but maximally slow: the widest split window the
           synchronous model allows.  The first write and its help
           broadcast settle quickly. *)
        scripted [ 1; 1 ] max_delay
      else
        (* Asynchronous: after the initial write (and its help refresh),
           every subsequent write stays in flight across the whole
           experiment. *)
        scripted [ 1; 1 ] far
    end
    else if c <= 2 * n then scripted [] 1 (* server -> writer acks *)
    else if c <= 3 * n then scripted [] 1 (* reader -> server *)
    else begin
      (* server (c - 3n - 1) -> reader acknowledgments *)
      let server = c - (3 * n) - 1 in
      if (not sync) && server >= n - f then
        (* Async: the last f correct servers never make it into the
           reader's (n-t)-acknowledgment sample. *)
        scripted [] far
      else scripted [] 1
    end

let run ~n ~f ?(sync = false) ?(budget = 6) ?(instrument = fun _ -> ()) () =
  if f < 1 || n <= 2 * f then invalid_arg "Starvation.run: need n > 2f >= 2";
  let params =
    if sync then
      Registers.Params.create_unchecked ~n ~f
        ~mode:(Registers.Params.Sync { max_delay = 10; slack = 3 }) ()
    else Registers.Params.create_unchecked ~n ~f ~mode:Registers.Params.Async ()
  in
  let rng = Sim.Rng.create 1 in
  let engine = Sim.Engine.create ~rng () in
  instrument engine;
  let net =
    Registers.Net.create ~engine ~params
      ~link_delay:(build_link_delay ~n ~f ~sync) ()
  in
  let adversary = Byzantine.Adversary.deploy ~net ~rng:(Sim.Rng.split rng) in
  for s = 0 to f - 1 do
    Byzantine.Adversary.compromise adversary s Byzantine.Behavior.equivocate
  done;
  let w = Registers.Swsr_regular.writer ~net ~client_id:100 ~inst:0 in
  let r = Registers.Swsr_regular.reader ~net ~client_id:101 ~inst:0 in
  let sleep d = Sim.Fiber.suspend (fun k -> Sim.Engine.schedule engine ~delay:d k) in
  let returned = ref None in
  let writes = if sync then 400 else 2 in
  ignore
    (Sim.Fiber.spawn ~name:"writer" (fun () ->
         for i = 1 to writes do
           ignore (Registers.Swsr_regular.write w (Registers.Value.int i))
         done));
  ignore
    (Sim.Fiber.spawn ~name:"reader" (fun () ->
         sleep 15;
         returned :=
           Registers.Outcome.to_option
             (Registers.Swsr_regular.read ~max_iterations:budget r)));
  (* The asynchronous schedule keeps a write pending essentially forever;
     cap the run well past the reader's budget. *)
  Sim.Engine.run ~until:(Sim.Vtime.of_int (far / 2)) engine;
  {
    starved = !returned = None;
    rounds_used = Registers.Swsr_regular.reader_iterations r;
    returned = !returned;
    params;
    metrics = Sim.Engine.metrics engine;
  }
