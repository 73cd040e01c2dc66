type writer = { ep : Collect.endpoint; modulus : int; mutable wsn : Seqnum.t }

type reader = {
  ep : Collect.endpoint;
  modulus : int;
  sanity_check : bool;
  mutable pwsn : Seqnum.t;
  mutable pv : Value.t;
  mutable preventions : int;
}

let writer ~net ~client_id ~inst ?(modulus = Seqnum.default_modulus) () =
  Seqnum.validate_modulus modulus;
  {
    ep = Collect.endpoint ~net ~client_id ~inst ~reg:"swsr_atomic" `Write;
    modulus;
    wsn = Seqnum.zero;
  }

let reader ~net ~client_id ~inst ?(modulus = Seqnum.default_modulus)
    ?(sanity_check = true) () =
  Seqnum.validate_modulus modulus;
  {
    ep = Collect.endpoint ~net ~client_id ~inst ~reg:"swsr_atomic" `Read;
    modulus;
    sanity_check;
    pwsn = Seqnum.zero;
    pv = Value.bot;
    preventions = 0;
  }

(* prac_at_write(v): lines N1, 01M, 02-06. *)
let write ?parent (w : writer) v =
  Collect.op ?parent w.ep (fun span ->
      w.wsn <- Seqnum.succ ~modulus:w.modulus w.wsn;
      Collect.write_round ~span w.ep { Messages.sn = w.wsn; v })

(* Lines N2-N7: sanity-check the local pair (pwsn, pv) against a quorum of
   helping values.  READ(false) does not reset any helping_val.  The check
   is advisory, so an expired attempt simply skips it. *)
let sanity_round ~span (r : reader) =
  let { Collect.net; port; inst; _ } = r.ep in
  let round = Net.ss_broadcast ~span net port ~inst (Messages.Read false) in
  let a =
    Collect.attempt_once ~net ~port ~round ~attempt:0 ~wanted:Collect.Read_acks
  in
  let threshold = Params.read_quorum (Net.params net) in
  match Quorum.find_ack_help ~threshold a.Collect.answers with
  | Some { Messages.sn; v } ->
    if Seqnum.gt_cd ~modulus:r.modulus r.pwsn sn then begin
      r.pwsn <- sn;
      r.pv <- v
    end
  | None -> ()

(* prac_at_read(): lines N2-N7 (sanity check) then 07-18 with 13M/15M. *)
let read ?parent ?max_iterations (r : reader) =
  let on_cell { Messages.sn; v } =
    if Seqnum.gt_cd ~modulus:r.modulus sn r.pwsn then begin
      (* line 13M2 *)
      r.pwsn <- sn;
      r.pv <- v;
      v
    end
    else begin
      (* line 13M3: prevention of new/old inversion *)
      r.preventions <- r.preventions + 1;
      r.pv
    end
  in
  let on_help { Messages.sn; v } =
    (* line 15M: already atomic *)
    r.pwsn <- sn;
    r.pv <- v;
    v
  in
  Collect.op ?parent r.ep (fun span ->
      if r.sanity_check then sanity_round ~span r;
      Collect.read_loop ~span ?max_iterations r.ep ~on_cell ~on_help)

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

let reader_iterations r = r.ep.Collect.iterations

let help_returns r = r.ep.Collect.help_returns

let inversion_preventions r = r.preventions

let writer_port (w : writer) = w.ep.Collect.port

let reader_port (r : reader) = r.ep.Collect.port
