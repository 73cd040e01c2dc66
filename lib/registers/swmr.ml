type writer = { copies : Swsr_atomic.writer array; probe : Instr.probe }

type reader = { sr : Swsr_atomic.reader; probe : Instr.probe }

let writer ~net ~client_id ~base_inst ~readers ?(modulus = Seqnum.default_modulus)
    () =
  if readers <= 0 then invalid_arg "Swmr.writer: need at least one reader";
  {
    copies =
      Array.init readers (fun j ->
          Swsr_atomic.writer ~net ~client_id ~inst:(base_inst + j) ~modulus ());
    probe =
      Instr.probe ~engine:(Net.engine net)
        ~client:client_id
        ~reg:"swmr" `Write;
  }

let reader ~net ~client_id ~base_inst ~reader_index
    ?(modulus = Seqnum.default_modulus) () =
  {
    sr =
      Swsr_atomic.reader ~net ~client_id ~inst:(base_inst + reader_index)
        ~modulus ();
    probe =
      Instr.probe ~engine:(Net.engine net)
        ~client:client_id
        ~reg:"swmr" `Read;
  }

(* The composite write is as healthy as its least healthy copy. *)
let write ?parent (w : writer) v =
  Instr.run ?parent w.probe (fun ctx ->
      Array.fold_left
        (fun acc c -> Outcome.worse acc (Swsr_atomic.write ~parent:ctx c v))
        (Outcome.Ok ()) w.copies)

let read ?parent ?max_iterations (r : reader) =
  Instr.run ?parent r.probe (fun ctx ->
      Swsr_atomic.read ~parent:ctx ?max_iterations r.sr)

let copies w = w.copies

let sr_reader r = r.sr
