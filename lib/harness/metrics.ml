let latencies ~kind h =
  Oracles.History.ops h
  |> List.filter_map (fun (o : Oracles.History.op) ->
         if o.kind = kind && o.ok then
           Some (float_of_int (Sim.Vtime.diff o.resp o.inv))
         else None)

let ok_reads h =
  List.length
    (List.filter (fun (o : Oracles.History.op) -> o.ok) (Oracles.History.reads h))

let failed_reads h =
  List.length
    (List.filter
       (fun (o : Oracles.History.op) -> not o.ok)
       (Oracles.History.reads h))

let stabilization_read_index ~valid h =
  let reads = Oracles.History.reads h in
  let n = List.length reads in
  if n = 0 then None
  else
    (* Last invalid read determines the clean suffix. *)
    let last_bad =
      List.fold_left
        (fun (i, acc) r -> (i + 1, if valid r then acc else Some i))
        (0, None) reads
      |> snd
    in
    match last_bad with
    | None -> Some 0
    | Some i when i + 1 < n -> Some (i + 1)
    | Some _ -> None
