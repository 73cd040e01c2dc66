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

let copy_intake g = { g with answers = Array.copy g.answers }

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
  else
    Int.max (Params.read_quorum params)
      (Int.min full (Health.responsive health))

let intake params ~health ~round ~attempt ~wanted =
  {
    answers = Array.make (params : Params.t).n no_answer;
    round;
    wanted;
    stop_at = attempt_target params ~health ~attempt;
    acks = 0;
  }

let attempt_of (g : intake) ~expired = { answers = g.answers; acks = g.acks; expired }

let attempt_once ~net ~port ~round ~attempt ~wanted =
  let params = Net.params net in
  let engine = Net.engine net in
  let health = port.Net.health in
  let g = intake params ~health ~round ~attempt ~wanted in
  match (Params.retry params).Params.deadline with
  | Some d ->
    let expired = gather ~engine ~port ~deadline:(after engine d) g in
    for s = 0 to params.n - 1 do
      Health.note health ~server:s ~answered:(g.answers.(s) != no_answer)
    done;
    attempt_of g ~expired
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
    attempt_of g ~expired:false

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
}

(* An operation that fell short of [need]: degraded if at least a read
   quorum answered, timed out otherwise.  Round automata build it without
   suspects; {!run} names the port's suspects when the operation ends. *)
let shortfall params ~suspects ~attempts ~acks ~need =
  let r = { Outcome.attempts; acks; need; suspects } in
  if acks >= Params.read_quorum params then Outcome.Degraded r
  else Outcome.Timed_out r

let judged params (c : collected) =
  let need = Params.write_ok_threshold params in
  if c.acks >= need then Outcome.Ok ()
  else shortfall params ~suspects:[] ~attempts:c.attempts ~acks:c.acks ~need

(* --- operations as round automata --- *)

type tally = { mutable iterations : int; mutable help_returns : int }

let fresh_tally () = { iterations = 0; help_returns = 0 }

let copy_tally t = { iterations = t.iterations; help_returns = t.help_returns }

type site = { params : Params.t; inst : int; probe : Instr.probe option }

let probe ?engine ~client ~reg op =
  Option.map (fun engine -> Instr.probe ~engine ~client ~reg op) engine

let site ?engine ~params ~client ~inst ~reg op =
  { params; inst; probe = probe ?engine ~client ~reg op }

type ('c, 'r) step =
  | Return : 'r -> ('c, 'r) step
  | Round : {
      inst : int;
      body : Messages.to_server;
      wanted : acks option;
      attempt : int;
      backoff : int;
      k : attempt -> 'c -> ('c, 'r) step;
    } -> ('c, 'r) step
  | Enter : { probe : Instr.probe; leaf : bool; next : 'c -> ('c, 'r) step }
      -> ('c, 'r) step
  | Leave : { outcome : 'x Outcome.t; next : 'x Outcome.t -> 'c -> ('c, 'r) step }
      -> ('c, 'r) step

type ('c, 'a, 'r) op = ('a -> 'c -> ('c, 'r) step) -> 'c -> ('c, 'r) step

let round ?wanted ~inst body k _ = Round { inst; body; wanted; attempt = 0; backoff = 0; k }

let scoped ?(leaf = false) probe body =
  match probe with
  | None -> body
  | Some probe ->
    fun k _ ->
      Enter { probe; leaf; next = body (fun outcome _ -> Leave { outcome; next = k }) }

let skipped = { answers = [||]; acks = 0; expired = false }

(* One logical collect — broadcast, gather, and retry with backoff until
   the full quota answers or the policy's attempts run out.  Continues
   with the best attempt seen. *)
let collect_rounds ~params ~inst ~body ~wanted k _ =
  let full = Params.ack_wait params in
  let max_attempts = Int.max 1 (Params.retry params).Params.attempts in
  let wanted = Some wanted in
  let rec go n (best : attempt) =
    let k (a : attempt) c =
      let best = if a.acks >= best.acks then a else best in
      if a.acks >= full || n + 1 >= max_attempts then
        let pick = if a.acks >= full then a else best in
        k { answers = pick.answers; acks = pick.acks; attempts = n + 1 } c
      else go (n + 1) best
    in
    Round { inst; body; wanted; attempt = n; backoff = n; k }
  in
  go 0 skipped

(* Lines 02-06: collect the write's acknowledgments, refresh the helping
   values unless enough servers already vouch for one (line 03), and
   judge the service level. *)
let write_round (site : site) cell k c =
  let params = site.params and inst = site.inst in
  collect_rounds ~params ~inst ~body:(Messages.Write cell) ~wanted:Write_acks
    (fun coll c ->
      let outcome = judged params coll in
      let threshold = Params.help_refresh_threshold params in
      match Quorum.find_ack_help ~threshold coll.answers with
      | Some _ -> k outcome c
      | None -> round ~inst (Messages.New_help cell) (fun _ -> k outcome) c)
    c

let read_acks = Some Read_acks

(* Lines 07-18: inquire until a read quorum vouches for a [last_val]
   (line 13) or a helping value (line 15), each round bounded by the
   wait policy and the expired rounds capped by its attempt budget.
   [on_cell] and [on_help] get the client state the round resumed with. *)
let read_loop ?(max_iterations = max_int) (site : site) ~tally ~on_cell
    ~on_help k c =
  let params = site.params in
  let threshold = Params.read_quorum params in
  let timeout_budget = Int.max 1 (Params.retry params).Params.attempts in
  let rec loop ~attempts ~timeouts ~best ~backoff budget c =
    if budget <= 0 || timeouts >= timeout_budget then
      k
        (shortfall params ~suspects:[] ~attempts:(Int.max 1 attempts) ~acks:best
           ~need:(Params.ack_wait params))
        c
    else
      let t = tally c in
      t.iterations <- t.iterations + 1;
      let k (a : attempt) c =
        match Quorum.find_ack_cell ~threshold a.answers with
        | Some cell -> k (Outcome.Ok (on_cell c cell)) c
        | None -> (
          match Quorum.find_ack_help ~threshold a.answers with
          | Some cell ->
            let t = tally c in
            t.help_returns <- t.help_returns + 1;
            k (Outcome.Ok (on_help c cell)) c
          | None ->
            let timeouts = if a.expired then timeouts + 1 else timeouts in
            let backoff =
              if a.expired && timeouts < timeout_budget && budget > 1 then timeouts
              else 0
            in
            loop ~attempts:(attempts + 1) ~timeouts ~best:(Int.max best a.acks)
              ~backoff (budget - 1) c)
      in
      Round { inst = site.inst; body = Messages.Read (attempts = 0);
              wanted = read_acks; attempt = attempts; backoff; k }
  in
  loop ~attempts:0 ~timeouts:0 ~best:0 ~backoff:0 max_iterations c

(* --- the fiber adapter --- *)

let with_suspects port = function
  | Outcome.Ok _ as o -> o
  | Outcome.Degraded r -> Outcome.Degraded { r with suspects = Health.suspects port.Net.health }
  | Outcome.Timed_out r -> Outcome.Timed_out { r with suspects = Health.suspects port.Net.health }

(* An open operation span and the context it was opened under. *)
type scope = { probe : Instr.probe; span : Instr.span; leaf : bool; under : Obs.Trace_ctx.span option }

(* Drive an automaton in the calling fiber: each round is one
   ss-broadcast and, unless it collects nothing, one attempt, under the
   innermost span [context]; each scope is one operation span.  A leaf
   scope counts its operation and names the port's suspects in a failed
   outcome. *)
let rec drive ~net ~port c context scopes = function
  | Return v -> v
  | Enter { probe; leaf; next } ->
    let span = Instr.start ?parent:context probe in
    drive ~net ~port c (Some (Instr.context span))
      ({ probe; span; leaf; under = context } :: scopes) (next c)
  | Leave { outcome; next } -> (
    match scopes with
    | [] -> invalid_arg "Collect.run: unbalanced scope"
    | s :: rest ->
      let outcome = if s.leaf then with_suspects port outcome else outcome in
      if s.leaf then Instr.count_op s.probe;
      Instr.finish ~ok:(Outcome.is_ok outcome) s.probe s.span;
      drive ~net ~port c s.under rest (next outcome c))
  | Round r ->
    if r.backoff > 0 then backoff_wait ~net ~port ~attempt:r.backoff;
    let round = Net.ss_broadcast ?span:context net port ~inst:r.inst r.body in
    let a =
      match r.wanted with
      | None -> skipped
      | Some wanted -> attempt_once ~net ~port ~round ~attempt:r.attempt ~wanted
    in
    drive ~net ~port c context scopes (r.k a c)

let finish v _ = Return v

let run ~net ~port c op = drive ~net ~port c None [] (op finish c)

(* --- one SWSR client endpoint --- *)

type endpoint = { net : Net.t; port : Net.client_port; site : site }

let endpoint ~net ~client_id ~inst ~reg op =
  let port = Net.add_client net ~id:client_id in
  { net; port;
    site = site ~engine:(Net.engine net) ~params:(Net.params net) ~client:client_id ~inst ~reg op }
