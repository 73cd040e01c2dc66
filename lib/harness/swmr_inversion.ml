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

(* The writer is client 100.  Its requests carry write#1 to copy 0
   (WRITE + NEW_HELP), write#1 to copy 1 (WRITE + NEW_HELP), write#2 to
   copy 0 (WRITE), then write#2 to copy 1 (WRITE, held in flight). *)
let link_delay ~client ~server:_ ~to_server _rng =
  match (client, to_server) with
  | 100, true -> Script.scripted [ 1; 1; 1; 1; 2; Script.far ] 1
  | _ -> Script.scripted [] 1

let run kind =
  let params = Registers.Params.create_exn ~n:9 ~f:1 ~mode:Registers.Params.Async () in
  let scn = Scenario.create ~link_delay ~params () in
  let net = scn.Scenario.net in
  let read_r0 = ref None and read_r1 = ref None in
  let v1 = Registers.Value.int 1 and v2 = Registers.Value.int 2 in
  let jobs write read0 read1 =
    [
      ( "writer",
        fun () ->
          ignore (write v1);
          ignore (write v2) );
      ( "readers",
        fun () ->
          Scenario.sleep scn 60;
          read_r0 := Registers.Outcome.to_option (read0 ());
          read_r1 := Registers.Outcome.to_option (read1 ()) );
    ]
  in
  ignore
    (Scenario.run_jobs ~until:(Sim.Vtime.of_int (Script.far / 2)) scn
       (match kind with
       | `Paper ->
         let module S = Registers.Swmr in
         let w = S.writer ~net ~client_id:100 ~base_inst:0 ~readers:2 () in
         let r0 = S.reader ~net ~client_id:200 ~base_inst:0 ~reader_index:0 () in
         let r1 = S.reader ~net ~client_id:201 ~base_inst:0 ~reader_index:1 () in
         jobs (S.write w) (fun () -> S.read r0) (fun () -> S.read r1)
       | `Write_back ->
         let module S = Registers.Swmr_wb in
         let w = S.writer ~net ~client_id:100 ~base_inst:0 ~readers:2 () in
         let r0 = S.reader ~net ~client_id:200 ~base_inst:0 ~reader_index:0 () in
         let r1 = S.reader ~net ~client_id:201 ~base_inst:0 ~reader_index:1 () in
         jobs (S.write w) (fun () -> S.read r0) (fun () -> S.read r1)));
  let inversion =
    match (!read_r0, !read_r1) with
    | Some a, Some b ->
      Registers.Value.equal a v2 && Registers.Value.equal b v1
    | _ -> false
  in
  { read_r0 = !read_r0; read_r1 = !read_r1; inversion }
