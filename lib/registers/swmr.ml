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

let write_o ?parent (w : writer) v =
  let span = Instr.start ?parent w.probe in
  let ctx = Instr.ctx span in
  (* The composite write is as healthy as its least healthy copy. *)
  let outcome =
    Array.fold_left
      (fun acc c -> Outcome.worse acc (Swsr_atomic.write_o ~parent:ctx c v))
      (Outcome.Ok ()) w.copies
  in
  Instr.finish ~ok:(Outcome.is_ok outcome) w.probe span;
  outcome

let write ?parent (w : writer) v = ignore (write_o ?parent w v)

let read_o ?parent ?max_iterations (r : reader) =
  let span = Instr.start ?parent r.probe in
  let result =
    Swsr_atomic.read_o ~parent:(Instr.ctx span) ?max_iterations r.sr
  in
  Instr.finish ~ok:(Outcome.is_ok result) r.probe span;
  result

let read ?parent ?max_iterations (r : reader) =
  Outcome.to_option (read_o ?parent ?max_iterations r)

let copies w = w.copies

let sr_reader r = r.sr
