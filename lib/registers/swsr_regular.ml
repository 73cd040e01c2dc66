type writer = Collect.endpoint

type reader = { ep : Collect.endpoint; tally : Collect.tally }

let writer ~net ~client_id ~inst =
  Collect.endpoint ~net ~client_id ~inst ~reg:"swsr_regular" `Write

let reader ~net ~client_id ~inst =
  {
    ep = Collect.endpoint ~net ~client_id ~inst ~reg:"swsr_regular" `Read;
    tally = Collect.fresh_tally ();
  }

(* operation write(v): lines 01-06.  The regular register carries no
   sequence number, so cells use sn = 0 throughout. *)
let write_op (site : Collect.site) v =
  Collect.scoped ~leaf:true site.probe
    (Collect.write_round site { Messages.sn = Seqnum.zero; v })

(* operation read(): lines 07-18; lines 13 and 15 both return the value. *)
let read_op ?max_iterations (site : Collect.site) ~tally =
  let value _ (c : Messages.cell) = c.v in
  Collect.scoped ~leaf:true site.probe
    (Collect.read_loop ?max_iterations site ~tally ~on_cell:value
       ~on_help:value)

let write (w : writer) v = Collect.run ~net:w.net ~port:w.port () (write_op w.site v)

let read ?max_iterations (r : reader) =
  Collect.run ~net:r.ep.net ~port:r.ep.port r
    (read_op ?max_iterations r.ep.site ~tally:(fun (r : reader) -> r.tally))

let reader_iterations (r : reader) = r.tally.iterations

let help_returns (r : reader) = r.tally.help_returns

let writer_port (w : writer) = w.port

let reader_port (r : reader) = r.ep.port
