type acks = Write_acks | Read_acks

(* A slot no counted acknowledgment filled.  It is compared physically, and
   it is an [Ack_write None]: a body that vouches for no [last_val] and no
   helping value, so quorum counts pass over it. *)
let no_answer = Messages.Ack_write None

(* The per-server slots of one collection pass and what fills them. *)
type intake = {
  answers : Messages.to_client array;
  round : int;
  wanted : acks;
  stop_at : int;
  mutable acks : int;
}

let kind_matches wanted (body : Messages.to_client) =
  match (wanted, body) with
  | Write_acks, Messages.Ack_write _ | Read_acks, Messages.Ack_read _ -> true
  | Write_acks, Messages.Ack_read _ | Read_acks, Messages.Ack_write _ -> false

let consider g (env : Messages.client_envelope) =
  let s = env.server in
  if
    env.round = g.round && s >= 0
    && s < Array.length g.answers
    && g.answers.(s) == no_answer
    && kind_matches g.wanted env.body
  then begin
    g.answers.(s) <- env.body;
    g.acks <- g.acks + 1
  end;
  g.acks >= g.stop_at

(* One collection pass over the port's mailbox: file the bodies of
   [round]'s acknowledgments of the wanted kind until [stop_at] distinct
   servers answered or [deadline] (when given) passes; true when it
   expired.  The round tag was captured at broadcast time: the wait
   matches the broadcast that was just issued even if a transient fault
   corrupts the port's tag while the round trip is in flight.  Without a
   deadline this is the paper's asynchronous client: it blocks until
   enough distinct servers answered, however long that takes. *)
let gather ~engine ~port ~deadline g =
  g.stop_at > 0
  && not (Sim.Mailbox.collect ~engine ~deadline port.Net.mailbox (consider g))

let after engine span = Some (Sim.Vtime.add (Sim.Engine.now engine) span)

type attempt = {
  answers : Messages.to_client array;
  acks : int;
  expired : bool;
}

(* How many distinct answers attempt number [attempt] (0-based) waits for.
   The first attempt wants the paper's full quota; retries stop counting on
   suspected slots — they wait only for the servers believed responsive,
   floored at the read quorum so a wrong suspicion can never lower the
   evidence a successful operation rests on. *)
let attempt_target params ~health ~attempt =
  let full = Params.ack_wait params in
  if attempt = 0 then full
  else max (Params.read_quorum params) (min full (Health.responsive health))

let attempt_once ~net ~port ~round ~attempt ~wanted =
  let params = Net.params net in
  let engine = Net.engine net in
  let health = port.Net.health in
  let n = (params : Params.t).n in
  let g =
    {
      answers = Array.make n no_answer;
      round;
      wanted;
      stop_at = attempt_target params ~health ~attempt;
      acks = 0;
    }
  in
  match (Params.retry params).Params.deadline with
  | Some d ->
    let expired = gather ~engine ~port ~deadline:(after engine d) g in
    for s = 0 to n - 1 do
      Health.note health ~server:s ~answered:(g.answers.(s) != no_answer)
    done;
    { answers = g.answers; acks = g.acks; expired }
  | None ->
    (* The paper's wait: block for the quota (async), or collect until the
       round-trip bound (sync, lines 02.M / 11.M) — the normal end of a
       synchronous round, not an expiry.  No suspicion without a deadline:
       the model checker's fingerprints leave [Health] out. *)
    let deadline =
      match Params.sync_timeout params with
      | Some d -> after engine d
      | None -> None
    in
    ignore (gather ~engine ~port ~deadline g);
    { answers = g.answers; acks = g.acks; expired = false }

let sleep ~net span =
  if span > 0 then
    let engine = Net.engine net in
    Sim.Fiber.suspend ~label:"Collect.backoff" (fun resume ->
        Sim.Engine.schedule engine ~delay:span (fun () -> resume ()))

(* Backoff before retry number [attempt] (1-based): the policy's
   exponential curve plus jitter from the port's own deterministic
   stream. *)
let backoff_wait ~net ~port ~attempt =
  let r = Params.retry (Net.params net) in
  let base = Params.backoff_span r ~attempt in
  let jitter =
    if r.Params.jitter > 0 then
      Sim.Rng.int port.Net.retry_rng (r.Params.jitter + 1)
    else 0
  in
  Obs.Metrics.incr (Sim.Engine.metrics (Net.engine net)) "collect.retries";
  let hub = Sim.Engine.hub (Net.engine net) in
  if Obs.Hub.active hub then
    Obs.Hub.emit hub
      (Obs.Event.Mark
         {
           time = Sim.Vtime.to_int (Sim.Engine.now (Net.engine net));
           label = Printf.sprintf "retry.c%d.a%d" port.Net.client_id attempt;
         });
  sleep ~net (base + jitter)

type collected = {
  answers : Messages.to_client array;
  acks : int;
  attempts : int;
  complete : bool;
}

(* An operation that fell short of [need]: degraded if at least a read
   quorum answered, timed out otherwise. *)
let shortfall params ~port ~attempts ~acks ~need =
  let r =
    { Outcome.attempts; acks; need; suspects = Health.suspects port.Net.health }
  in
  if acks >= Params.read_quorum params then Outcome.Degraded r
  else Outcome.Timed_out r

let judge ~net ~port (c : collected) =
  let params = Net.params net in
  let need = Params.write_ok_threshold params in
  if c.acks >= need then Outcome.Ok ()
  else shortfall params ~port ~attempts:c.attempts ~acks:c.acks ~need

(* One logical collect — broadcast, gather, and retry with backoff until
   the full quota answers or the policy's attempts run out.  Returns the
   best attempt seen. *)
let retrying ?span ~net ~port ~inst ~body ~wanted () =
  let params = Net.params net in
  let full = Params.ack_wait params in
  let max_attempts = max 1 (Params.retry params).Params.attempts in
  let rec go k (best : attempt) =
    let round = Net.ss_broadcast ?span net port ~inst body in
    let a = attempt_once ~net ~port ~round ~attempt:k ~wanted in
    let best = if a.acks >= best.acks then a else best in
    if a.acks >= full then
      { answers = a.answers; acks = a.acks; attempts = k + 1; complete = true }
    else if k + 1 >= max_attempts then
      {
        answers = best.answers;
        acks = best.acks;
        attempts = k + 1;
        complete = false;
      }
    else begin
      backoff_wait ~net ~port ~attempt:(k + 1);
      go (k + 1) best
    end
  in
  go 0 { answers = [||]; acks = 0; expired = false }

(* --- the operation skeleton shared by the SWSR families --- *)

type endpoint = {
  net : Net.t;
  port : Net.client_port;
  inst : int;
  probe : Instr.probe;
  mutable iterations : int;
  mutable help_returns : int;
}

let endpoint ~net ~client_id ~inst ~reg op =
  let port = Net.add_client net ~id:client_id in
  {
    net;
    port;
    inst;
    probe = Instr.probe ~engine:(Net.engine net) ~client:client_id ~reg op;
    iterations = 0;
    help_returns = 0;
  }

let op ?parent ep body =
  Instr.run ?parent ep.probe (fun span ->
      let outcome = body span in
      Instr.count_op ep.probe;
      outcome)

(* Lines 02-06: collect the write's acknowledgments, refresh the helping
   values unless enough servers already vouch for one (line 03), and
   judge the service level. *)
let write_round ~span ep cell =
  let net = ep.net and port = ep.port in
  let c =
    retrying ~span ~net ~port ~inst:ep.inst ~body:(Messages.Write cell)
      ~wanted:Write_acks ()
  in
  let threshold = Params.help_refresh_threshold (Net.params net) in
  (match Quorum.find_ack_help ~threshold c.answers with
  | Some _ -> ()
  | None ->
    ignore
      (Net.ss_broadcast ~span net port ~inst:ep.inst (Messages.New_help cell)));
  judge ~net ~port c

(* Lines 07-18: inquire until a read quorum vouches for a [last_val]
   (line 13) or a helping value (line 15), each round bounded by the
   wait policy and the expired rounds capped by its attempt budget. *)
let read_loop ~span ?(max_iterations = max_int) ep ~on_cell ~on_help =
  let net = ep.net and port = ep.port in
  let params = Net.params net in
  let threshold = Params.read_quorum params in
  let timeout_budget = max 1 (Params.retry params).Params.attempts in
  let new_read = ref true in
  let attempts = ref 0 in
  let timeouts = ref 0 in
  let best_acks = ref 0 in
  let rec loop budget =
    if budget <= 0 || !timeouts >= timeout_budget then None
    else begin
      ep.iterations <- ep.iterations + 1;
      incr attempts;
      let round =
        Net.ss_broadcast ~span net port ~inst:ep.inst (Messages.Read !new_read)
      in
      new_read := false;
      let a =
        attempt_once ~net ~port ~round ~attempt:(!attempts - 1)
          ~wanted:Read_acks
      in
      if a.acks > !best_acks then best_acks := a.acks;
      match Quorum.find_ack_cell ~threshold a.answers with
      | Some cell -> Some (on_cell cell)
      | None -> (
        match Quorum.find_ack_help ~threshold a.answers with
        | Some cell ->
          ep.help_returns <- ep.help_returns + 1;
          Some (on_help cell)
        | None ->
          if a.expired then begin
            incr timeouts;
            if !timeouts < timeout_budget && budget > 1 then
              backoff_wait ~net ~port ~attempt:!timeouts
          end;
          loop (budget - 1))
    end
  in
  match loop max_iterations with
  | Some v -> Outcome.Ok v
  | None ->
    shortfall params ~port ~attempts:(max 1 !attempts) ~acks:!best_acks
      ~need:(Params.ack_wait params)
