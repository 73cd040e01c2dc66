type writer = {
  net : Net.t;
  port : Net.client_port;
  inst : int;
  probe : Instr.probe;
}

type reader = {
  net : Net.t;
  port : Net.client_port;
  inst : int;
  probe : Instr.probe;
  mutable iterations : int;
  mutable help_returns : int;
}

let writer ~net ~client_id ~inst =
  {
    net;
    port = Net.add_client net ~id:client_id;
    inst;
    probe =
      Instr.probe ~engine:(Net.engine net)
        ~client:client_id
        ~reg:"swsr_regular" `Write;
  }

let reader ~net ~client_id ~inst =
  {
    net;
    port = Net.add_client net ~id:client_id;
    inst;
    probe =
      Instr.probe ~engine:(Net.engine net)
        ~client:client_id
        ~reg:"swsr_regular" `Read;
    iterations = 0;
    help_returns = 0;
  }

(* operation write(v): lines 01-06.  The regular register carries no
   sequence number, so cells use sn = 0 throughout. *)
let write_o ?parent (w : writer) v =
  let span = Instr.start ?parent w.probe in
  let ctx = Instr.ctx span in
  let params = Net.params w.net in
  let cell = { Messages.sn = Seqnum.zero; v } in
  let c =
    Collect.retrying ~span:ctx ~net:w.net ~port:w.port ~inst:w.inst
      ~body:(Messages.Write cell) ~filter:Collect.write_filter ()
  in
  let threshold = Params.help_refresh_threshold params in
  (match Quorum.find_help ~threshold c.Collect.payloads with
  | Some _ -> ()
  | None ->
    ignore
      (Net.ss_broadcast ~span:ctx w.net w.port ~inst:w.inst
         (Messages.New_help cell)));
  let outcome = Collect.judge ~net:w.net ~port:w.port c in
  Sim.Trace.incr (Sim.Engine.trace (Net.engine w.net)) "write.ops";
  (* Without a retry policy a completed (blocking / sync-timeout) wait is
     success by definition — the legacy trace semantics. *)
  Instr.finish
    ~ok:(Outcome.is_ok outcome || Params.retry params = None)
    w.probe span;
  outcome

let write ?parent (w : writer) v = ignore (write_o ?parent w v)

(* operation read(): lines 07-18, with each inquiry round bounded by the
   retry policy's per-attempt deadline (when one is installed). *)
let read_o ?parent ?(max_iterations = max_int) (r : reader) =
  let span = Instr.start ?parent r.probe in
  let ctx = Instr.ctx span in
  let params = Net.params r.net in
  let threshold = Params.read_quorum params in
  let timeout_budget =
    match Params.retry params with
    | None -> max_int
    | Some rc -> max 1 rc.Params.attempts
  in
  let new_read = ref true in
  let attempts = ref 0 in
  let timeouts = ref 0 in
  let best_acks = ref 0 in
  let rec loop budget =
    if budget <= 0 || !timeouts >= timeout_budget then None
    else begin
      r.iterations <- r.iterations + 1;
      incr attempts;
      let round =
        Net.ss_broadcast ~span:ctx r.net r.port ~inst:r.inst
          (Messages.Read !new_read)
      in
      new_read := false;
      let a =
        Collect.attempt_once ~net:r.net ~port:r.port ~round
          ~attempt:(!attempts - 1) ~filter:Collect.read_filter
      in
      if a.Collect.acks > !best_acks then best_acks := a.Collect.acks;
      let acks = a.Collect.payloads in
      let lasts = List.map fst acks in
      match Quorum.find_cell ~threshold lasts with
      | Some cell -> Some cell.Messages.v (* line 13: regular or atomic *)
      | None -> (
        let helps = List.map snd acks in
        match Quorum.find_help ~threshold helps with
        | Some cell ->
          r.help_returns <- r.help_returns + 1;
          Some cell.Messages.v (* line 15: atomic *)
        | None ->
          if a.Collect.expired then begin
            incr timeouts;
            if !timeouts < timeout_budget && budget > 1 then
              Collect.backoff_wait ~net:r.net ~port:r.port ~attempt:!timeouts
          end;
          loop (budget - 1))
    end
  in
  let result = loop max_iterations in
  let outcome =
    match result with
    | Some v -> Outcome.Ok v
    | None ->
      let reason =
        Collect.reason_of ~net:r.net ~port:r.port ~attempts:(max 1 !attempts)
          ~acks:!best_acks ~need:(Params.ack_wait params)
      in
      if !best_acks >= threshold then Outcome.Degraded reason
      else Outcome.Timed_out reason
  in
  Sim.Trace.incr (Sim.Engine.trace (Net.engine r.net)) "read.ops";
  Instr.finish ~ok:(Outcome.is_ok outcome) r.probe span;
  outcome

let read ?parent ?max_iterations (r : reader) =
  Outcome.to_option (read_o ?parent ?max_iterations r)

let reader_iterations r = r.iterations

let help_returns r = r.help_returns

let writer_port (w : writer) = w.port

let reader_port (r : reader) = r.port
