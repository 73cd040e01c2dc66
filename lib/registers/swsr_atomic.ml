type wstate = { mutable wsn : Seqnum.t }

type rstate = {
  mutable pwsn : Seqnum.t;
  mutable pv : Value.t;
  mutable preventions : int;
  tally : Collect.tally;
}

let fresh_wstate () = { wsn = Seqnum.zero }

let fresh_rstate () =
  { pwsn = Seqnum.zero; pv = Value.bot; preventions = 0; tally = Collect.fresh_tally () }

let copy_wstate w = { wsn = w.wsn }

let copy_rstate r = { r with tally = Collect.copy_tally r.tally }

type writer = { ep : Collect.endpoint; modulus : int; st : wstate }

type reader = { ep : Collect.endpoint; modulus : int; sanity_check : bool; st : rstate }

let writer ~net ~client_id ~inst ?(modulus = Seqnum.default_modulus) () =
  Seqnum.validate_modulus modulus;
  { ep = Collect.endpoint ~net ~client_id ~inst ~reg:"swsr_atomic" `Write;
    modulus; st = fresh_wstate () }

let reader ~net ~client_id ~inst ?(modulus = Seqnum.default_modulus)
    ?(sanity_check = true) () =
  Seqnum.validate_modulus modulus;
  { ep = Collect.endpoint ~net ~client_id ~inst ~reg:"swsr_atomic" `Read;
    modulus; sanity_check; st = fresh_rstate () }

(* prac_at_write(v): lines N1, 01M, 02-06. *)
let write_op (site : Collect.site) ~modulus get v =
  Collect.scoped ~leaf:true site.probe (fun k c ->
      let w = get c in
      w.wsn <- Seqnum.succ ~modulus w.wsn;
      Collect.write_round site { Messages.sn = w.wsn; v } k c)

(* Lines N2-N7: sanity-check the local pair (pwsn, pv) against a quorum of
   helping values.  READ(false) does not reset any helping_val.  The check
   is advisory, so an expired attempt simply skips it. *)
let sanity_round (site : Collect.site) ~modulus get k =
  let threshold = Params.read_quorum site.params in
  Collect.round ~wanted:Collect.Read_acks ~inst:site.inst (Messages.Read false)
    (fun a c ->
      (match Quorum.find_ack_help ~threshold a.Collect.answers with
      | Some { Messages.sn; v } ->
        let r = get c in
        if Seqnum.gt_cd ~modulus r.pwsn sn then begin
          r.pwsn <- sn;
          r.pv <- v
        end
      | None -> ());
      k () c)

(* prac_at_read(): lines N2-N7 (sanity check) then 07-18 with 13M/15M. *)
let read_op ?max_iterations (site : Collect.site) ~modulus ~sanity_check get =
  let on_cell c { Messages.sn; v } =
    let r = get c in
    if Seqnum.gt_cd ~modulus sn r.pwsn then begin
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
  let on_help c { Messages.sn; v } =
    (* line 15M: already atomic *)
    let r = get c in
    r.pwsn <- sn;
    r.pv <- v;
    v
  in
  let loop = Collect.read_loop ?max_iterations site ~tally:(fun c -> (get c).tally) ~on_cell ~on_help in
  Collect.scoped ~leaf:true site.probe
    (if sanity_check then fun k ->
       sanity_round site ~modulus get (fun () -> loop k)
     else loop)

let write (w : writer) v =
  Collect.run ~net:w.ep.net ~port:w.ep.port w
    (write_op w.ep.site ~modulus:w.modulus (fun (w : writer) -> w.st) v)

let read ?max_iterations (r : reader) =
  Collect.run ~net:r.ep.net ~port:r.ep.port r
    (read_op ?max_iterations r.ep.site ~modulus:r.modulus
       ~sanity_check:r.sanity_check (fun (r : reader) -> r.st))

let wsn (w : writer) = w.st.wsn

let pwsn (r : reader) = r.st.pwsn

let pv (r : reader) = r.st.pv

let corrupt_writer (w : writer) rng = w.st.wsn <- Sim.Rng.int rng w.modulus

let corrupt_reader (r : reader) rng =
  r.st.pwsn <- Sim.Rng.int rng r.modulus;
  r.st.pv <- Value.arbitrary rng

let corrupt_reader_to (r : reader) ~pwsn ~pv =
  r.st.pwsn <- Seqnum.norm ~modulus:r.modulus pwsn;
  r.st.pv <- pv

let reader_iterations (r : reader) = r.st.tally.iterations

let help_returns (r : reader) = r.st.tally.help_returns

let inversion_preventions (r : reader) = r.st.preventions

let writer_port (w : writer) = w.ep.port

let reader_port (r : reader) = r.ep.port
