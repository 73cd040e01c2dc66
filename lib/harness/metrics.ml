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
