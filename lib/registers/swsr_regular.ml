type writer = Collect.endpoint

type reader = Collect.endpoint

let writer ~net ~client_id ~inst =
  Collect.endpoint ~net ~client_id ~inst ~reg:"swsr_regular" `Write

let reader ~net ~client_id ~inst =
  Collect.endpoint ~net ~client_id ~inst ~reg:"swsr_regular" `Read

(* operation write(v): lines 01-06.  The regular register carries no
   sequence number, so cells use sn = 0 throughout. *)
let write ?parent (w : writer) v =
  Collect.op ?parent w (fun span ->
      Collect.write_round ~span w { Messages.sn = Seqnum.zero; v })

(* operation read(): lines 07-18; lines 13 and 15 both return the value. *)
let read ?parent ?max_iterations (r : reader) =
  let value (c : Messages.cell) = c.v in
  Collect.op ?parent r (fun span ->
      Collect.read_loop ~span ?max_iterations r ~on_cell:value ~on_help:value)

let reader_iterations (r : reader) = r.iterations

let help_returns (r : reader) = r.help_returns

let writer_port (w : writer) = w.port

let reader_port (r : reader) = r.port
