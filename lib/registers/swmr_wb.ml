(* Instance layout for a register with r readers at [base]:
     base + j                    reader j's copy (written by the writer)
     base + r + (i*r + j)        EX[i][j], written by reader i, read by j *)

type writer = {
  net : Net.t;
  port : Net.client_port;
  layout : Swmr.layout;  (* the swmr_wb probe over the per-reader copies *)
  copies : Swsr_atomic.wstate array;
  modulus : int;
  mutable shared_sn : Seqnum.t;
}

type reader = {
  net : Net.t;
  port : Net.client_port;
  probe : Instr.probe option;
  own : Collect.site * Swsr_atomic.rstate;
  incoming : (Collect.site * Swsr_atomic.rstate) array; (* EX[i][me] for i <> me *)
  outgoing : (Collect.site * Swsr_atomic.wstate) array; (* EX[me][i] for i <> me *)
  modulus : int;
  mutable wb_writes : int;
}

let ex_inst ~base_inst ~readers ~from_reader ~to_reader =
  base_inst + readers + (from_reader * readers) + to_reader

let site net ~client_id op inst =
  Collect.site ~engine:(Net.engine net) ~params:(Net.params net) ~client:client_id
    ~inst ~reg:"swsr_atomic" op

let writer ~net ~client_id ~base_inst ~readers
    ?(modulus = Seqnum.default_modulus) () =
  if readers <= 0 then invalid_arg "Swmr_wb.writer: need at least one reader";
  Seqnum.validate_modulus modulus;
  let port = Net.add_client net ~id:client_id in
  let sites = Array.init readers (fun j -> site net ~client_id `Write (base_inst + j)) in
  {
    net;
    port;
    layout =
      { Swmr.probe = Collect.probe ~engine:(Net.engine net) ~client:client_id ~reg:"swmr_wb" `Write;
        sites };
    copies = Array.init readers (fun _ -> Swsr_atomic.fresh_wstate ());
    modulus;
    shared_sn = Seqnum.zero;
  }

let reader ~net ~client_id ~base_inst ~reader_index ?(readers = 2)
    ?(modulus = Seqnum.default_modulus) () =
  if reader_index < 0 || reader_index >= readers then
    invalid_arg "Swmr_wb.reader: index out of range";
  Seqnum.validate_modulus modulus;
  let others =
    List.filter (fun i -> i <> reader_index) (List.init readers (fun i -> i))
    |> Array.of_list
  in
  let port = Net.add_client net ~id:client_id in
  let copy op fresh inst = (site net ~client_id op inst, fresh ()) in
  let own = copy `Read Swsr_atomic.fresh_rstate (base_inst + reader_index) in
  let incoming =
    Array.map
      (fun i ->
        copy `Read Swsr_atomic.fresh_rstate
          (ex_inst ~base_inst ~readers ~from_reader:i ~to_reader:reader_index))
      others
  in
  let outgoing =
    Array.map
      (fun i ->
        copy `Write Swsr_atomic.fresh_wstate
          (ex_inst ~base_inst ~readers ~from_reader:reader_index ~to_reader:i))
      others
  in
  {
    net;
    port;
    probe = Collect.probe ~engine:(Net.engine net) ~client:client_id ~reg:"swmr_wb" `Read;
    own;
    incoming;
    outgoing;
    modulus;
    wb_writes = 0;
  }

(* One shared sequence number for all copies: re-impose it on each copy
   so that cross-copy comparisons stay meaningful even after transient
   faults desynchronized the per-copy counters. *)
let write (w : writer) v =
  let modulus = w.modulus in
  Collect.run ~net:w.net ~port:w.port w (fun k (w : writer) ->
      w.shared_sn <- Seqnum.succ ~modulus w.shared_sn;
      let sn = Seqnum.norm ~modulus (w.shared_sn - 1) in
      Array.iter (fun (c : Swsr_atomic.wstate) -> c.wsn <- sn) w.copies;
      Swmr.write_op w.layout ~modulus (fun j (w : writer) -> w.copies.(j)) v k w)

(* Exchange payloads embed (wsn, value) as a genesis-stamped value. *)
let encode ~sn v = Value.stamped ~data:v ~epoch:(Epoch.genesis ~k:2) ~seq:sn

let decode ~modulus = function
  | Value.Stamped { data; seq; _ } -> (Seqnum.norm ~modulus seq, data)
  | (Value.Bot | Value.Int _ | Value.Str _) as v -> (Seqnum.zero, v)

let read ?max_iterations (r : reader) =
  let modulus = r.modulus in
  let read_copy (site, _) get =
    Swsr_atomic.read_op ?max_iterations site ~modulus ~sanity_check:true get
  in
  let newer ((bsn, _) as best) ((sn, _) as cand) =
    if Seqnum.gt_cd ~modulus sn bsn then cand else best
  in
  (* Write-back: inform the other readers before returning.  A degraded
     write-back degrades the read — other readers may miss the freshness
     this read is about to rely on. *)
  let rec write_back k (sn, v) j acc (c : reader) =
    if j = Array.length c.outgoing then k (Outcome.map (fun () -> v) acc) c
    else begin
      c.wb_writes <- c.wb_writes + 1;
      Swsr_atomic.write_op (fst c.outgoing.(j)) ~modulus
        (fun (c : reader) -> snd c.outgoing.(j))
        (encode ~sn v)
        (fun o -> write_back k (sn, v) (j + 1) (Outcome.worse acc o))
        c
    end
  in
  (* Exchange reads stay best-effort: a degraded or starved exchange
     cannot invalidate the value read from our own copy, it only loses
     freshness hints — so failures are absorbed, not propagated. *)
  let rec exchange k best i (c : reader) =
    if i = Array.length c.incoming then write_back k best 0 (Outcome.Ok ()) c
    else
      read_copy c.incoming.(i) (fun (c : reader) -> snd c.incoming.(i))
        (fun o ->
          let best =
            match o with
            | Outcome.Ok v -> newer best (decode ~modulus v)
            | Outcome.Degraded _ | Outcome.Timed_out _ -> best
          in
          exchange k best (i + 1))
        c
  in
  Collect.run ~net:r.net ~port:r.port r
    (Collect.scoped r.probe (fun k ->
         read_copy r.own (fun (c : reader) -> snd c.own) (function
           | (Outcome.Degraded _ | Outcome.Timed_out _) as failed -> k failed
           | Outcome.Ok own_v ->
             fun (c : reader) -> exchange k ((snd c.own).pwsn, own_v) 0 c)))

let exchange_writes r = r.wb_writes
