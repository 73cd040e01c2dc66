type gap = { lo : int; hi : int }

let gap lo hi =
  if lo < 0 || hi < lo then invalid_arg "Workload.gap: bad range";
  { lo; hi }

let value_for ~writer k = Registers.Value.int ((writer * 1_000_000) + k)

let pause scn rng g =
  if g.hi > 0 then Scenario.sleep scn (Sim.Rng.int_in rng g.lo g.hi)

let writer_job scn ?(proc = "writer") ?(writer_id = 0) ~write ~count ~gap ()
    =
  let rng = Scenario.split_rng scn in
  for k = 1 to count do
    let v = value_for ~writer:writer_id k in
    ignore
      (Scenario.record scn ~proc ~kind:Oracles.History.Write (fun () ->
           ignore (write v);
           Some v));
    pause scn rng gap
  done

let reader_job scn ?(proc = "reader") ~read ~count ~gap () =
  let rng = Scenario.split_rng scn in
  for _ = 1 to count do
    ignore
      (Scenario.record scn ~proc ~kind:Oracles.History.Read (fun () ->
           Registers.Outcome.to_option (read ())));
    pause scn rng gap
  done

let mwmr_job scn ~proc ~process ~ops ~write_ratio ~gap ?max_iterations () =
  let rng = Scenario.split_rng scn in
  let pid = Registers.Mwmr.id process in
  let writer_id = 100 + pid in
  let k = ref 0 in
  for _ = 1 to ops do
    if Sim.Rng.float rng 1.0 < write_ratio then begin
      incr k;
      let v = value_for ~writer:writer_id !k in
      let inv = Scenario.now scn in
      ignore (Registers.Mwmr.write process v);
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
