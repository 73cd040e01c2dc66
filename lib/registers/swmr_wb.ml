(* Instance layout for a register with r readers at [base]:
     base + j                    reader j's copy (written by the writer)
     base + r + (i*r + j)        EX[i][j], written by reader i, read by j *)

type writer = {
  copies : Swsr_atomic.writer array;
  modulus : int;
  probe : Instr.probe;
  mutable shared_sn : Seqnum.t;
}

type reader = {
  own : Swsr_atomic.reader;
  incoming : Swsr_atomic.reader array; (* EX[i][me] for i <> me *)
  outgoing : Swsr_atomic.writer array; (* EX[me][i] for i <> me *)
  modulus : int;
  probe : Instr.probe;
  mutable wb_writes : int;
}

let ex_inst ~base_inst ~readers ~from_reader ~to_reader =
  base_inst + readers + (from_reader * readers) + to_reader

let writer ~net ~client_id ~base_inst ~readers
    ?(modulus = Seqnum.default_modulus) () =
  if readers <= 0 then invalid_arg "Swmr_wb.writer: need at least one reader";
  {
    copies =
      Array.init readers (fun j ->
          Swsr_atomic.writer ~net ~client_id ~inst:(base_inst + j) ~modulus ());
    modulus;
    probe =
      Instr.probe ~engine:(Net.engine net)
        ~client:client_id
        ~reg:"swmr_wb" `Write;
    shared_sn = Seqnum.zero;
  }

let reader ~net ~client_id ~base_inst ~reader_index ?(readers = 2)
    ?(modulus = Seqnum.default_modulus) () =
  if reader_index < 0 || reader_index >= readers then
    invalid_arg "Swmr_wb.reader: index out of range";
  let others =
    List.filter (fun i -> i <> reader_index) (List.init readers (fun i -> i))
    |> Array.of_list
  in
  {
    own =
      Swsr_atomic.reader ~net ~client_id ~inst:(base_inst + reader_index)
        ~modulus ();
    incoming =
      Array.map
        (fun i ->
          Swsr_atomic.reader ~net ~client_id
            ~inst:(ex_inst ~base_inst ~readers ~from_reader:i ~to_reader:reader_index)
            ~modulus ())
        others;
    outgoing =
      Array.map
        (fun i ->
          Swsr_atomic.writer ~net ~client_id
            ~inst:(ex_inst ~base_inst ~readers ~from_reader:reader_index ~to_reader:i)
            ~modulus ())
        others;
    modulus;
    probe =
      Instr.probe ~engine:(Net.engine net)
        ~client:client_id
        ~reg:"swmr_wb" `Read;
    wb_writes = 0;
  }

let write ?parent (w : writer) v =
  Instr.run ?parent w.probe (fun ctx ->
      (* One shared sequence number for all copies: re-impose it on each
         copy so that cross-copy comparisons stay meaningful even after
         transient faults desynchronized the per-copy counters. *)
      w.shared_sn <- Seqnum.succ ~modulus:w.modulus w.shared_sn;
      Array.fold_left
        (fun acc c ->
          Swsr_atomic.set_wsn c
            (Seqnum.norm ~modulus:w.modulus (w.shared_sn - 1));
          Outcome.worse acc (Swsr_atomic.write ~parent:ctx c v))
        (Outcome.Ok ()) w.copies)

(* Exchange payloads embed (wsn, value) as a genesis-stamped value. *)
let encode ~sn v = Value.stamped ~data:v ~epoch:(Epoch.genesis ~k:2) ~seq:sn

let decode ~modulus = function
  | Value.Stamped { data; seq; _ } -> (Seqnum.norm ~modulus seq, data)
  | (Value.Bot | Value.Int _ | Value.Str _) as v -> (Seqnum.zero, v)

let read ?parent ?max_iterations (r : reader) =
  Instr.run ?parent r.probe (fun ctx ->
      match Swsr_atomic.read ~parent:ctx ?max_iterations r.own with
      | (Outcome.Degraded _ | Outcome.Timed_out _) as failed -> failed
      | Outcome.Ok own_v ->
        let own = (Swsr_atomic.pwsn r.own, own_v) in
        (* Exchange reads stay best-effort: a degraded or starved exchange
           cannot invalidate the value read from our own copy, it only
           loses freshness hints — so failures are absorbed, not
           propagated. *)
        let candidates =
          own
          :: (Array.to_list r.incoming
             |> List.filter_map (fun ex ->
                    Swsr_atomic.read ~parent:ctx ?max_iterations ex
                    |> Outcome.to_option
                    |> Option.map (decode ~modulus:r.modulus)))
        in
        let best_sn, best_v =
          List.fold_left
            (fun (bsn, bv) (sn, v) ->
              if Seqnum.gt_cd ~modulus:r.modulus sn bsn then (sn, v)
              else (bsn, bv))
            own candidates
        in
        (* Write-back: inform the other readers before returning.  A
           degraded write-back degrades the read — other readers may miss
           the freshness this read is about to rely on. *)
        Array.fold_left
          (fun acc out ->
            r.wb_writes <- r.wb_writes + 1;
            Outcome.worse acc
              (Swsr_atomic.write ~parent:ctx out (encode ~sn:best_sn best_v)))
          (Outcome.Ok ()) r.outgoing
        |> Outcome.map (fun () -> best_v))

let exchange_writes r = r.wb_writes
