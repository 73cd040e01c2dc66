(* One broadcast and its first-attempt collection. *)
let round ~net ~port ~inst ~wanted body =
  Collect.run ~net ~port () (Collect.round ~wanted ~inst body)

(* The [last_val]s one READ(false) round collected, in server-id order. *)
let read_lasts ~net ~port ~inst =
  let a = round ~net ~port ~inst ~wanted:Collect.Read_acks (Messages.Read false) in
  Array.fold_right
    (fun body lasts ->
      match body with
      | Messages.Ack_read (c, _) -> c :: lasts
      | Messages.Ack_write _ -> lasts)
    a.Collect.answers []

module Nonstab = struct
  type writer = {
    net : Net.t;
    port : Net.client_port;
    inst : int;
    mutable sn : int;
  }

  type reader = { net : Net.t; port : Net.client_port; inst : int }

  let install_servers ~net servers =
    Array.iter
      (fun srv ->
        let s = Server.id srv in
        (Net.endpoints net).(s).Net.on_deliver <-
          (fun (env : Messages.server_envelope) ->
            let i = Server.instance srv env.inst in
            match env.body with
            | Messages.Write c ->
              (* Classical monotone-timestamp update rule. *)
              if c.Messages.sn > i.Server.last_val.Messages.sn then
                i.Server.last_val <- c;
              Net.answer net ~server:s env (Messages.Ack_write None)
            | Messages.New_help _ -> ()
            | Messages.Read _ ->
              Net.answer net ~server:s env
                (Messages.Ack_read (i.Server.last_val, None))))
      servers

  let writer ~net ~client_id ~inst =
    { net; port = Net.add_client net ~id:client_id; inst; sn = 0 }

  let reader ~net ~client_id ~inst =
    { net; port = Net.add_client net ~id:client_id; inst }

  let write (w : writer) v =
    w.sn <- w.sn + 1;
    ignore
      (round ~net:w.net ~port:w.port ~inst:w.inst ~wanted:Collect.Write_acks
         (Messages.Write { sn = w.sn; v }))

  let read ?(max_iterations = 64) (r : reader) =
    let params = Net.params r.net in
    let witness = (params : Params.t).f + 1 in
    let rec loop budget =
      if budget <= 0 then None
      else begin
        let lasts = read_lasts ~net:r.net ~port:r.port ~inst:r.inst in
        (* Candidates vouched for by at least t+1 servers; take the highest
           timestamp under the ordinary integer order: with unbounded
           counters and no transient faults this is the classical read, and
           with them it is exactly what goes wrong. *)
        let vouched =
          List.filter
            (fun c ->
              List.length (List.filter (Messages.cell_equal c) lasts)
              >= witness)
            lasts
        in
        match
          List.fold_left
            (fun acc (c : Messages.cell) ->
              match acc with
              | Some (best : Messages.cell) when best.sn >= c.sn -> acc
              | Some _ | None -> Some c)
            None vouched
        with
        | Some c -> Some c.Messages.v
        | None -> loop (budget - 1)
      end
    in
    loop max_iterations

  let timestamp w = w.sn

  let corrupt_writer w rng = w.sn <- Sim.Rng.int rng 8
end

module Quiescent = struct
  type writer = { net : Net.t; port : Net.client_port; inst : int }

  type reader = {
    net : Net.t;
    port : Net.client_port;
    inst : int;
    mutable iterations : int;
  }

  let writer ~net ~client_id ~inst =
    { net; port = Net.add_client net ~id:client_id; inst }

  let reader ~net ~client_id ~inst =
    { net; port = Net.add_client net ~id:client_id; inst; iterations = 0 }

  let write (w : writer) v =
    ignore
      (round ~net:w.net ~port:w.port ~inst:w.inst ~wanted:Collect.Write_acks
         (Messages.Write { sn = Seqnum.zero; v }))

  let read ?(max_iterations = 64) (r : reader) =
    let threshold = Params.read_quorum (Net.params r.net) in
    let rec loop budget =
      if budget <= 0 then None
      else begin
        r.iterations <- r.iterations + 1;
        let lasts = read_lasts ~net:r.net ~port:r.port ~inst:r.inst in
        match Quorum.find_cell ~threshold lasts with
        | Some c -> Some c.Messages.v
        | None -> loop (budget - 1)
      end
    in
    loop max_iterations

  let reader_iterations r = r.iterations
end
