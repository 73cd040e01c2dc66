type endpoint = { mutable on_deliver : Messages.server_envelope -> unit }

(* A port's links under the deployment's medium, in one place: every
   send, chaos knob and transient fault on them is one match here. *)
type links =
  | Fifo of {
      to_servers : Messages.server_envelope Sim.Link.t array;
      from_servers : Messages.client_envelope Sim.Link.t array;
    }
  | Stabilizing of {
      to_servers : Messages.server_envelope Ss_transport.t array;
      reply_senders : Messages.client_envelope Ss_transport.t array;
    }

type medium =
  | Reliable_fifo
  | Stabilizing of { loss : float; dup : float }

type client_port = {
  client_id : int;
  mailbox : Messages.client_envelope Sim.Mailbox.t;
  mutable round : int;
  links : links;
  health : Health.t;
  retry_rng : Sim.Rng.t;
}

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  medium : medium;
  endpoints : endpoint array;
  mutable correct : bool array; (* by server slot *)
  mutable ports : (int * client_port) list; (* ascending by client id *)
  link_delay : Sim.Rng.t -> Sim.Link.sampler;
  (* Per-message-class traffic accounting, indexed by
     [Obs.Event.class_index]; the refs are resolved once here so the send
     path never hashes a counter name. *)
  sent_count : int ref array;
  sent_bytes : int ref array;
  recv_count : int ref array;
  broadcasts : int ref;
}

(* Counter names, in [Obs.Event.class_index] order; built once per
   program rather than once per deployment. *)
let per_class_names ~dir ~suffix =
  List.map
    (fun c -> "msg." ^ dir ^ "." ^ Obs.Event.class_name c ^ "." ^ suffix)
    Obs.Event.all_classes

let sent_count_names = per_class_names ~dir:"sent" ~suffix:"count"

let sent_bytes_names = per_class_names ~dir:"sent" ~suffix:"bytes"

let recv_count_names = per_class_names ~dir:"recv" ~suffix:"count"

let create ~engine ~params ?(medium = Reliable_fifo) ~link_delay () =
  let n = (params : Params.t).n in
  let metrics = Sim.Engine.metrics engine in
  let refs names =
    Array.of_list (List.map (Obs.Metrics.counter_ref metrics) names)
  in
  {
    engine;
    params;
    medium;
    endpoints = Array.init n (fun _ -> { on_deliver = (fun _ -> ()) });
    correct = Array.make n true;
    ports = [];
    link_delay;
    sent_count = refs sent_count_names;
    sent_bytes = refs sent_bytes_names;
    recv_count = refs recv_count_names;
    broadcasts = Obs.Metrics.counter_ref metrics "ss.broadcasts";
  }

(* The typed traffic events, built only for an active hub: their peers
   and a receipt's size would otherwise cost allocations and work on
   every message. *)
let emit_traffic t ~send ~client ~server ~to_server ~span cls bytes =
  let c = Obs.Event.Client client and s = Obs.Event.Server server in
  let src, dst = if to_server then (c, s) else (s, c) in
  let time = Sim.Vtime.to_int (Sim.Engine.now t.engine) in
  Obs.Hub.emit (Sim.Engine.hub t.engine)
    (if send then Obs.Event.Send { time; src; dst; cls; bytes; span }
     else Obs.Event.Recv { time; src; dst; cls; bytes; span })

(* Account [copies] sends of one message; with an active hub the caller
   emits their [Send] events. *)
let count_sends t cls bytes ~copies =
  let i = Obs.Event.class_index cls in
  (t.sent_count.(i) := !(t.sent_count.(i)) + copies);
  t.sent_bytes.(i) := !(t.sent_bytes.(i)) + (copies * bytes)

let record_ack_recv t ~client (env : Messages.client_envelope) =
  let cls = Messages.class_of_to_client env.body in
  incr t.recv_count.(Obs.Event.class_index cls);
  if Obs.Hub.active (Sim.Engine.hub t.engine) then
    emit_traffic t ~send:false ~client ~server:env.server ~to_server:false
      ~span:(Messages.client_span env) cls
      (Messages.client_envelope_bytes env)

let record_request_recv t ~server (env : Messages.server_envelope) =
  let cls = Messages.class_of_to_server env.body in
  incr t.recv_count.(Obs.Event.class_index cls);
  if Obs.Hub.active (Sim.Engine.hub t.engine) then
    emit_traffic t ~send:false ~client:env.client ~server ~to_server:true
      ~span:env.span cls
      (Messages.server_envelope_bytes env)

let engine t = t.engine

let params t = t.params

let endpoints t = t.endpoints

let set_correct t f = t.correct <- Array.init (Array.length t.correct) f

let is_correct t i = t.correct.(i)

let round_modulus = 1 lsl 30

(* "c100=>s3" and friends: the ss-transport links carry these names into
   their [Drop] events and marks.  Each client port builds 2n of them, so
   no [Printf]. *)
let link_name p a arrow b =
  let buf = Buffer.create 16 in
  Buffer.add_string buf p;
  Value.add_decimal buf a;
  Buffer.add_string buf arrow;
  Value.add_decimal buf b;
  Buffer.contents buf

let rec find_port id = function
  | [] -> None
  | (k, port) :: rest -> if Int.equal k id then Some port else find_port id rest

let rec insert_port id port = function
  | (k, _) :: _ as later when id < k -> (id, port) :: later
  | entry :: rest -> entry :: insert_port id port rest
  | [] -> [ (id, port) ]

let add_client t ~id =
  match find_port id t.ports with
  | Some port -> port
  | None ->
    let n = t.params.Params.n in
    let mailbox = Sim.Mailbox.create () in
    let health = Health.create ~n () in
    (* The backoff-jitter stream is seeded from the retry policy and the
       client id, NOT split off the engine's generator: splitting here
       would shift every later split (link samplers, fault draws) and
       silently invalidate all committed seeded artifacts. *)
    let retry_rng =
      Sim.Rng.create (t.params.Params.retry.jitter_seed + (1_000_003 * id))
    in
    let mk_sampler () = t.link_delay (Sim.Rng.split (Sim.Engine.rng t.engine)) in
    let receive env =
      record_ack_recv t ~client:id env;
      Sim.Mailbox.push mailbox env
    in
    (* Bound one after the other, never inside a record literal, whose
       fields OCaml evaluates in no promised order: every sampler and
       transport splits the engine's generator, to-server links first,
       each array in server order. *)
    let links : links =
      match t.medium with
      | Reliable_fifo ->
        let to_servers =
          Array.init n (fun s ->
              Sim.Link.create ~engine:t.engine ~delay:(mk_sampler ())
                ~deliver:(fun env -> t.endpoints.(s).on_deliver env))
        in
        let from_servers =
          Array.init n (fun _ ->
              Sim.Link.create ~engine:t.engine ~delay:(mk_sampler ()) ~deliver:receive)
        in
        Fifo { to_servers; from_servers }
      | Stabilizing { loss; dup } ->
        let rng () = Sim.Rng.split (Sim.Engine.rng t.engine) in
        let to_servers =
          Array.init n (fun s ->
              Ss_transport.create ~engine:t.engine ~rng:(rng ())
                ~delay:(mk_sampler ()) ~loss ~dup
                ~classify:(fun (env : Messages.server_envelope) ->
                  Messages.class_of_to_server env.body)
                ~name:(link_name "c" id "=>s" s)
                ~deliver:(fun env -> t.endpoints.(s).on_deliver env)
                ())
        in
        let reply_senders =
          Array.init n (fun s ->
              Ss_transport.create ~engine:t.engine ~rng:(rng ())
                ~delay:(mk_sampler ()) ~loss ~dup
                ~classify:(fun (env : Messages.client_envelope) ->
                  Messages.class_of_to_client env.body)
                ~name:(link_name "s" s "=>c" id)
                ~deliver:receive ())
        in
        Stabilizing { to_servers; reply_senders }
    in
    let port = { client_id = id; mailbox; round = 0; links; health; retry_rng } in
    t.ports <- insert_port id port t.ports;
    port

let client_ports t = t.ports

(* The acknowledgment is a new causal node under [cause], the span of
   the request it answers (or a fresh root for unsolicited Byzantine
   chatter).  Its id is drawn here, in the order replies are sent, but
   the span itself is only built when a sink reads it. *)
let send_reply t ~server ~client ~round ~cause body =
  match find_port client t.ports with
  | None -> ()
  | Some port -> (
    let span_id = Obs.Trace_ctx.fresh (Sim.Engine.spans t.engine) in
    let env = { Messages.round; server; body; cause; span_id } in
    let cls = Messages.class_of_to_client body in
    let bytes = Messages.client_envelope_bytes env in
    count_sends t cls bytes ~copies:1;
    if Obs.Hub.active (Sim.Engine.hub t.engine) then
      emit_traffic t ~send:true ~client ~server ~to_server:false
        ~span:(Messages.client_span env) cls bytes;
    match port.links with
    | Fifo { from_servers; _ } -> Sim.Link.send from_servers.(server) env
    | Stabilizing { reply_senders; _ } ->
      Ss_transport.send reply_senders.(server) env)

let reply ?(parent = Obs.Trace_ctx.none) t ~server ~client body ~round =
  send_reply t ~server ~client ~round ~cause:parent body

let answer t ~server (env : Messages.server_envelope) body =
  send_reply t ~server ~client:env.client ~round:env.round ~cause:env.span
    body

let install_honest_server t srv =
  let s = Server.id srv in
  let ack = answer t ~server:s in
  t.endpoints.(s).on_deliver <-
    (fun env ->
      record_request_recv t ~server:s env;
      let hub = Sim.Engine.hub t.engine in
      if Obs.Hub.active hub then
        Obs.Hub.emit hub
          (Obs.Event.Phase
             {
               time = Sim.Vtime.to_int (Sim.Engine.now t.engine);
               server = s;
               phase =
                 "handle."
                 ^ Obs.Event.class_name
                     (Messages.class_of_to_server env.Messages.body);
               span = env.Messages.span;
             });
      Server.handle srv env ~ack)

let ss_broadcast ?(span = Obs.Trace_ctx.none) t port ~inst body =
  incr t.broadcasts;
  port.round <- (port.round + 1) mod round_modulus;
  (* One child span per broadcast round: every copy of the message, each
     server's handling of it and each acknowledgment hang off it. *)
  let bspan = Obs.Trace_ctx.child (Sim.Engine.spans t.engine) span in
  let env =
    {
      Messages.round = port.round;
      client = port.client_id;
      inst;
      body;
      span = bspan;
    }
  in
  let n = t.params.Params.n in
  let cls = Messages.class_of_to_server body in
  let env_bytes = Messages.server_envelope_bytes env in
  count_sends t cls env_bytes ~copies:n;
  if Obs.Hub.active (Sim.Engine.hub t.engine) then
    for s = 0 to n - 1 do
      emit_traffic t ~send:true ~client:port.client_id ~server:s
        ~to_server:true ~span:bspan cls env_bytes
    done;
  (* Synchronized delivery: the invocation spans the first (n - 2t) correct
     deliveries.  If the adversary corrupts more than t servers (tightness
     experiments), fall back to the last correct delivery so the broadcast
     still terminates. *)
  let quorum = t.params.Params.n - (2 * t.params.Params.f) in
  let correct_total =
    Array.fold_left (fun c ok -> if ok then c + 1 else c) 0 t.correct
  in
  let target = Int.min quorum correct_total in
  (* Both transports count actual delivery callbacks rather than
     precomputing arrival instants: the synchronized-delivery property must
     hold under *any* admissible arrival order across links (link delays,
     losses and retransmissions decide it), not just the queue order of a
     fresh run; the model checker's explicit state, [Mc.Sys], counts
     deliveries the same way.  Only deliveries at servers correct when the
     broadcast went out count, so those links share one callback and the
     others get none. *)
  Sim.Fiber.suspend ~label:"Net.ss_broadcast" (fun resume ->
      let confirmed = ref 0 in
      let resumed = ref false in
      let settle () =
        if not !resumed then begin
          resumed := true;
          resume ()
        end
      in
      let on_correct =
        Some
          (fun () ->
            incr confirmed;
            if !confirmed >= target then settle ())
      in
      for s = 0 to t.params.Params.n - 1 do
        let on_delivered = if t.correct.(s) then on_correct else None in
        match port.links with
        | Fifo { to_servers; _ } -> Sim.Link.send to_servers.(s) ?on_delivered env
        | Stabilizing { to_servers; _ } ->
          Ss_transport.send to_servers.(s) ?on_delivered env
      done;
      if target = 0 then Sim.Engine.schedule t.engine ~delay:0 settle);
  env.Messages.round

type direction = To_servers | From_servers | Both

let set_port_chaos port ~dir ?server ~loss ~dup () =
  match port.links with
  | Fifo _ -> ()
  | Stabilizing { to_servers; reply_senders } -> (
    let apply arr =
      Array.iteri
        (fun s tr ->
          match server with
          | Some k when k <> s -> ()
          | Some _ | None ->
            Ss_transport.set_loss tr loss;
            Ss_transport.set_dup tr dup)
        arr
    in
    match dir with
    | To_servers -> apply to_servers
    | From_servers -> apply reply_senders
    | Both ->
      apply to_servers;
      apply reply_senders)

let corrupt_round port rng = port.round <- Sim.Rng.int rng 1024

let corrupt_links port rng =
  match port.links with
  | Fifo { to_servers; from_servers } ->
    (* Garble what is in transit towards the servers.  Deliveries and
       their round tags survive — the self-stabilizing data link's
       retransmission completes every in-flight handshake — but the
       protocol contents are arbitrary. *)
    Array.iter
      (fun link ->
        Sim.Link.corrupt_in_flight link (fun (env : Messages.server_envelope) ->
            let body =
              match env.body with
              | Messages.Write _ -> Messages.Write (Messages.arbitrary_cell rng)
              | Messages.New_help _ ->
                Messages.New_help (Messages.arbitrary_cell rng)
              | Messages.Read _ -> Messages.Read (Sim.Rng.bool rng)
            in
            Some { env with body }))
      to_servers;
    (* And plant spurious acknowledgments on the return links: the
       arbitrary initial link state of the model. *)
    Array.iteri
      (fun server link ->
        if Sim.Rng.bool rng then
          Sim.Link.send link
            {
              Messages.round = Sim.Rng.int rng 1024;
              server;
              body =
                Messages.Ack_read
                  ( Messages.arbitrary_cell rng,
                    Some (Messages.arbitrary_cell rng) );
              (* Debris from the arbitrary initial state has no causal
                 ancestry. *)
              cause = Obs.Trace_ctx.none;
              span_id = 0;
            })
      from_servers
  | Stabilizing { to_servers; reply_senders } ->
    Array.iter (fun s -> Ss_transport.corrupt s rng) to_servers;
    Array.iter (fun s -> Ss_transport.corrupt s rng) reply_senders
