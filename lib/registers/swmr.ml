type layout = { probe : Instr.probe option; sites : Collect.site array }

let layout ?engine ~params ~client_id op insts =
  { probe = Collect.probe ?engine ~client:client_id ~reg:"swmr" op;
    sites =
      Array.map
        (fun inst -> Collect.site ?engine ~params ~client:client_id ~inst ~reg:"swsr_atomic" op)
        insts }

(* The composite write is as healthy as its least healthy copy. *)
let write_op (l : layout) ~modulus copy v =
  Collect.scoped l.probe (fun k ->
      let rec go j acc =
        if j = Array.length l.sites then k acc
        else
          Swsr_atomic.write_op l.sites.(j) ~modulus (copy j) v (fun o ->
              go (j + 1) (Outcome.worse acc o))
      in
      go 0 (Outcome.Ok ()))

let read_op ?max_iterations (l : layout) ~modulus get =
  Collect.scoped l.probe
    (Swsr_atomic.read_op ?max_iterations l.sites.(0) ~modulus ~sanity_check:true get)

type 's endpoint = {
  net : Net.t;
  port : Net.client_port;
  layout : layout;
  modulus : int;
  st : 's;
}

type writer = Swsr_atomic.wstate array endpoint

type reader = Swsr_atomic.rstate endpoint

let endpoint ~net ~client_id ~modulus op insts st =
  Seqnum.validate_modulus modulus;
  { net; port = Net.add_client net ~id:client_id; modulus; st;
    layout = layout ~engine:(Net.engine net) ~params:(Net.params net) ~client_id op insts }

let writer ~net ~client_id ~base_inst ~readers ?(modulus = Seqnum.default_modulus)
    () =
  if readers <= 0 then invalid_arg "Swmr.writer: need at least one reader";
  endpoint ~net ~client_id ~modulus `Write
    (Array.init readers (fun j -> base_inst + j))
    (Array.init readers (fun _ -> Swsr_atomic.fresh_wstate ()))

let reader ~net ~client_id ~base_inst ~reader_index
    ?(modulus = Seqnum.default_modulus) () =
  endpoint ~net ~client_id ~modulus `Read [| base_inst + reader_index |]
    (Swsr_atomic.fresh_rstate ())

let write (w : writer) v =
  Collect.run ~net:w.net ~port:w.port w
    (write_op w.layout ~modulus:w.modulus (fun j (w : writer) -> w.st.(j)) v)

let read ?max_iterations (r : reader) =
  Collect.run ~net:r.net ~port:r.port r
    (read_op ?max_iterations r.layout ~modulus:r.modulus (fun (r : reader) -> r.st))

let copies (w : writer) = w.st
