type gap = { lo : int; hi : int }

let gap lo hi =
  if lo < 0 || hi < lo then invalid_arg "Workload.gap: bad range";
  { lo; hi }

type tally = {
  mutable writes : Registers.Outcome.tally;
  mutable reads : Registers.Outcome.tally;
}

let tally () = Registers.Outcome.{ writes = zero_tally; reads = zero_tally }

let count_write t o = t.writes <- Registers.Outcome.bump t.writes o ~count:1

let count_read t o = t.reads <- Registers.Outcome.bump t.reads o ~count:1

let value_for ~writer k = Registers.Value.int ((writer * 1_000_000) + k)

let pause scn rng g =
  if g.hi > 0 then Scenario.sleep scn (Sim.Rng.int_in rng g.lo g.hi)

let writer_job scn ?(proc = "writer") ?(writer_id = 0) ~tally ~write ~count
    ~gap () =
  let rng = Scenario.split_rng scn in
  for k = 1 to count do
    let v = value_for ~writer:writer_id k in
    (* Even a degraded write reached a read quorum of servers, so the
       oracle must treat it as a write that may be read. *)
    ignore
      (Scenario.record scn ~proc ~kind:Oracles.History.Write (fun () ->
           count_write tally (write v);
           Some v));
    pause scn rng gap
  done

let reader_job scn ?(proc = "reader") ~tally ~read ~count ~gap () =
  let rng = Scenario.split_rng scn in
  for _ = 1 to count do
    ignore
      (Scenario.record scn ~proc ~kind:Oracles.History.Read (fun () ->
           let o = read () in
           count_read tally o;
           Registers.Outcome.to_option o));
    pause scn rng gap
  done

let mwmr_job scn ~proc ~process ~tally ~ops ~write_ratio ~gap ?max_iterations
    () =
  let rng = Scenario.split_rng scn in
  let pid = Registers.Mwmr.id process in
  let writer_id = 100 + pid in
  let k = ref 0 in
  for _ = 1 to ops do
    if Sim.Rng.float rng 1.0 < write_ratio then begin
      incr k;
      let v = value_for ~writer:writer_id !k in
      let inv = Scenario.now scn in
      count_write tally (Registers.Mwmr.write process v);
      let resp = Scenario.now scn in
      let ts =
        match Registers.Mwmr.last_write_timestamp process with
        | Some (e, s) -> Some (e, s, pid)
        | None -> None
      in
      Oracles.History.record scn.Scenario.history ~proc
        ~kind:Oracles.History.Write ~inv ~resp ?ts v
    end
    else begin
      let inv = Scenario.now scn in
      let result = Registers.Mwmr.read_timestamped ?max_iterations process in
      let resp = Scenario.now scn in
      count_read tally result;
      (* A read that crossed an epoch boundary performed the line-11
         internal write; the checker must see it as a write. *)
      List.iter
        (fun (v, e, s) ->
          Oracles.History.record scn.Scenario.history ~proc
            ~kind:Oracles.History.Write ~inv ~resp ~ts:(e, s, pid) v)
        (Registers.Mwmr.take_restamps process);
      match result with
      | Registers.Outcome.Ok (v, e, s, j) ->
        Oracles.History.record scn.Scenario.history ~proc
          ~kind:Oracles.History.Read ~inv ~resp ~ts:(e, s, j) v
      | Registers.Outcome.Degraded _ | Registers.Outcome.Timed_out _ ->
        Oracles.History.record scn.Scenario.history ~proc
          ~kind:Oracles.History.Read ~inv ~resp ~ok:false Registers.Value.bot
    end;
    pause scn rng gap
  done

(* The writer is created before the reader: each splits generators off
   the engine's. *)
let regular_pair scn =
  let net = scn.Scenario.net in
  let w = Registers.Swsr_regular.writer ~net ~client_id:100 ~inst:0 in
  (w, Registers.Swsr_regular.reader ~net ~client_id:101 ~inst:0)

let atomic_pair scn =
  let net = scn.Scenario.net in
  let w = Registers.Swsr_atomic.writer ~net ~client_id:100 ~inst:0 () in
  (w, Registers.Swsr_atomic.reader ~net ~client_id:101 ~inst:0 ())

let deploy scn (family : Oracles.Stabilization.family) ~writes ~reads
    ~read_budget:max_iterations ~gap ~tally =
  let pair write read =
    [
      ("writer", fun () -> writer_job scn ~tally ~write ~count:writes ~gap ());
      ("reader", fun () -> reader_job scn ~tally ~read ~count:reads ~gap ());
    ]
  in
  match family with
  | Regular ->
    let w, r = regular_pair scn in
    Scenario.register_port scn (Registers.Swsr_regular.writer_port w);
    Scenario.register_port scn (Registers.Swsr_regular.reader_port r);
    pair (Registers.Swsr_regular.write w) (fun () ->
        Registers.Swsr_regular.read ~max_iterations r)
  | Atomic ->
    let w, r = atomic_pair scn in
    Scenario.register_port scn (Registers.Swsr_atomic.writer_port w);
    Scenario.register_port scn (Registers.Swsr_atomic.reader_port r);
    Scenario.register_atomic_writer scn ~name:"writer" w;
    Scenario.register_atomic_reader scn ~name:"reader" r;
    pair (Registers.Swsr_atomic.write w) (fun () ->
        Registers.Swsr_atomic.read ~max_iterations r)
  | Mwmr ->
    let m = 2 and total = writes + reads in
    let cfg = Registers.Mwmr.default_config ~m in
    let write_ratio = float_of_int writes /. float_of_int (Int.max 1 total) in
    List.init m (fun id ->
        let process =
          Registers.Mwmr.process ~net:scn.Scenario.net ~cfg ~id
            ~client_id:(300 + id)
        in
        let proc = Printf.sprintf "p%d" id in
        ( proc,
          fun () ->
            mwmr_job scn ~proc ~process ~tally ~ops:(total / m) ~write_ratio
              ~gap ~max_iterations () ))
