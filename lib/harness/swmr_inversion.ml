(* A deterministic cross-reader new/old inversion against the §5.1 SWMR
   composition.

   The writer updates the per-reader copies sequentially; a scripted
   schedule keeps the second copy's update in flight while reader 0
   already returned the new value from the first copy — reader 1, reading
   strictly later, still returns the old value.  This is legal for a
   regular register but violates SWMR atomicity: the §5.1 composition
   gives per-reader atomicity only, and the classical reader write-back
   (implemented in {!Registers.Swmr_wb}) is what removes the cross-reader
   inversion. *)

type outcome = {
  read_r0 : Registers.Value.t option;  (** earlier read, reader 0 *)
  read_r1 : Registers.Value.t option;  (** later read, reader 1 *)
  inversion : bool;  (** r0 saw value 2, r1 then saw value 1 *)
}

let scripted = Script.scripted

let far = Script.far

(* Link-creation order: writer port (9 + 9 links), then r0's, then r1's,
   then (write-back variant only) the exchange clients'. *)
let build_link_delay () =
  let call = ref 0 in
  fun _rng ->
    incr call;
    let c = !call in
    if c <= 9 then
      (* writer -> server: write#1 copy0 (WRITE + NEW_HELP), write#1 copy1
         (WRITE + NEW_HELP), write#2 copy0 (WRITE), write#2 copy1 (WRITE,
         held in flight). *)
      scripted [ 1; 1; 1; 1; 2; far ] 1
    else scripted [] 1

let run kind =
  let params = Registers.Params.create_exn ~n:9 ~f:1 ~mode:Registers.Params.Async () in
  let rng = Sim.Rng.create 1 in
  let engine = Sim.Engine.create ~rng () in
  let net =
    Registers.Net.create ~engine ~params ~link_delay:(build_link_delay ()) ()
  in
  let servers = Array.init 9 (fun id -> Registers.Server.create ~id) in
  Array.iter (Registers.Net.install_honest_server net) servers;
  let sleep d = Sim.Fiber.suspend (fun k -> Sim.Engine.schedule engine ~delay:d k) in
  let read_r0 = ref None and read_r1 = ref None in
  let v1 = Registers.Value.int 1 and v2 = Registers.Value.int 2 in
  (match kind with
  | `Paper ->
    let w = Registers.Swmr.writer ~net ~client_id:100 ~base_inst:0 ~readers:2 () in
    let r0 = Registers.Swmr.reader ~net ~client_id:200 ~base_inst:0 ~reader_index:0 () in
    let r1 = Registers.Swmr.reader ~net ~client_id:201 ~base_inst:0 ~reader_index:1 () in
    ignore
      (Sim.Fiber.spawn ~name:"writer" (fun () ->
           ignore (Registers.Swmr.write w v1);
           ignore (Registers.Swmr.write w v2)));
    ignore
      (Sim.Fiber.spawn ~name:"readers" (fun () ->
           sleep 60;
           read_r0 :=
             Registers.Outcome.to_option (Registers.Swmr.read r0);
           read_r1 :=
             Registers.Outcome.to_option (Registers.Swmr.read r1)))
  | `Write_back ->
    let w =
      Registers.Swmr_wb.writer ~net ~client_id:100 ~base_inst:0 ~readers:2 ()
    in
    let r0 =
      Registers.Swmr_wb.reader ~net ~client_id:200 ~base_inst:0
        ~reader_index:0 ()
    in
    let r1 =
      Registers.Swmr_wb.reader ~net ~client_id:201 ~base_inst:0
        ~reader_index:1 ()
    in
    ignore
      (Sim.Fiber.spawn ~name:"writer" (fun () ->
           ignore (Registers.Swmr_wb.write w v1);
           ignore (Registers.Swmr_wb.write w v2)));
    ignore
      (Sim.Fiber.spawn ~name:"readers" (fun () ->
           sleep 60;
           read_r0 :=
             Registers.Outcome.to_option (Registers.Swmr_wb.read r0);
           read_r1 :=
             Registers.Outcome.to_option (Registers.Swmr_wb.read r1))));
  Sim.Engine.run ~until:(Sim.Vtime.of_int (far / 2)) engine;
  let inversion =
    match (!read_r0, !read_r1) with
    | Some a, Some b ->
      Registers.Value.equal a v2 && Registers.Value.equal b v1
    | _ -> false
  in
  { read_r0 = !read_r0; read_r1 = !read_r1; inversion }
