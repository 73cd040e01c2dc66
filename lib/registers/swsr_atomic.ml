type writer = {
  net : Net.t;
  port : Net.client_port;
  inst : int;
  modulus : int;
  probe : Instr.probe;
  mutable wsn : Seqnum.t;
}

type reader = {
  net : Net.t;
  port : Net.client_port;
  inst : int;
  modulus : int;
  probe : Instr.probe;
  sanity_check : bool;
  mutable pwsn : Seqnum.t;
  mutable pv : Value.t;
  mutable iterations : int;
  mutable help_returns : int;
  mutable preventions : int;
}

let writer ~net ~client_id ~inst ?(modulus = Seqnum.default_modulus) () =
  Seqnum.validate_modulus modulus;
  {
    net;
    port = Net.add_client net ~id:client_id;
    inst;
    modulus;
    probe =
      Instr.probe ~engine:(Net.engine net)
        ~client:client_id
        ~reg:"swsr_atomic" `Write;
    wsn = Seqnum.zero;
  }

let reader ~net ~client_id ~inst ?(modulus = Seqnum.default_modulus)
    ?(sanity_check = true) () =
  Seqnum.validate_modulus modulus;
  {
    net;
    port = Net.add_client net ~id:client_id;
    inst;
    modulus;
    probe =
      Instr.probe ~engine:(Net.engine net)
        ~client:client_id
        ~reg:"swsr_atomic" `Read;
    sanity_check;
    pwsn = Seqnum.zero;
    pv = Value.bot;
    iterations = 0;
    help_returns = 0;
    preventions = 0;
  }

(* prac_at_write(v): lines N1, 01M, 02-06. *)
let write_o ?parent (w : writer) v =
  let span = Instr.start ?parent w.probe in
  let ctx = Instr.ctx span in
  let params = Net.params w.net in
  w.wsn <- Seqnum.succ ~modulus:w.modulus w.wsn;
  let cell = { Messages.sn = w.wsn; v } in
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
  Instr.finish
    ~ok:(Outcome.is_ok outcome || Params.retry params = None)
    w.probe span;
  outcome

let write ?parent (w : writer) v = ignore (write_o ?parent w v)

(* prac_at_read(): lines N2-N7 (sanity check) then 07-18 with 13M/15M. *)
let read_o ?parent ?(max_iterations = max_int) (r : reader) =
  let span = Instr.start ?parent r.probe in
  let ctx = Instr.ctx span in
  let params = Net.params r.net in
  let threshold = Params.read_quorum params in
  let modulus = r.modulus in
  (* Lines N2-N7: sanity-check the local pair (pwsn, pv) against a quorum
     of helping values.  READ(false) does not reset any helping_val.  The
     check is advisory, so an expired attempt simply skips it. *)
  if r.sanity_check then begin
    let round =
      Net.ss_broadcast ~span:ctx r.net r.port ~inst:r.inst
        (Messages.Read false)
    in
    let a =
      Collect.attempt_once ~net:r.net ~port:r.port ~round ~attempt:0
        ~filter:Collect.read_filter
    in
    match Quorum.find_help ~threshold (List.map snd a.Collect.payloads) with
    | Some { Messages.sn; v } ->
      if Seqnum.gt_cd ~modulus r.pwsn sn then begin
        r.pwsn <- sn;
        r.pv <- v
      end
    | None -> ()
  end;
  (* Lines 07-18. *)
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
      match Quorum.find_cell ~threshold (List.map fst acks) with
      | Some { Messages.sn; v } ->
        if Seqnum.gt_cd ~modulus sn r.pwsn then begin
          (* line 13M2 *)
          r.pwsn <- sn;
          r.pv <- v;
          Some v
        end
        else begin
          (* line 13M3: prevention of new/old inversion *)
          r.preventions <- r.preventions + 1;
          Some r.pv
        end
      | None -> (
        match Quorum.find_help ~threshold (List.map snd acks) with
        | Some { Messages.sn; v } ->
          (* line 15M: already atomic *)
          r.pwsn <- sn;
          r.pv <- v;
          r.help_returns <- r.help_returns + 1;
          Some v
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

let wsn w = w.wsn

let set_wsn (w : writer) sn = w.wsn <- Seqnum.norm ~modulus:w.modulus sn

let pwsn r = r.pwsn

let pv r = r.pv

let corrupt_writer (w : writer) rng = w.wsn <- Sim.Rng.int rng w.modulus

let corrupt_reader r rng =
  r.pwsn <- Sim.Rng.int rng r.modulus;
  r.pv <- Value.arbitrary rng

let corrupt_reader_to r ~pwsn ~pv =
  r.pwsn <- Seqnum.norm ~modulus:r.modulus pwsn;
  r.pv <- pv

let reader_iterations r = r.iterations

let help_returns r = r.help_returns

let inversion_preventions r = r.preventions

let writer_port (w : writer) = w.port

let reader_port (r : reader) = r.port
