type endpoint = { mutable on_deliver : Messages.server_envelope -> unit }

type medium =
  | Reliable_fifo
  | Stabilizing of { loss : float; dup : float; retrans : int }

type port_transport =
  | Direct
  | Lossy of {
      to_servers : Messages.server_envelope Ss_transport.t array;
      reply_senders : Messages.client_envelope Ss_transport.t array;
    }

type client_port = {
  client_id : int;
  mailbox : Messages.client_envelope Sim.Mailbox.t;
  to_servers : Messages.server_envelope Sim.Link.t array;
  from_servers : Messages.client_envelope Sim.Link.t array;
  mutable round : int;
  transport : port_transport;
  health : Health.t;
  retry_rng : Sim.Rng.t;
}

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  medium : medium;
  endpoints : endpoint array;
  mutable correct : int -> bool;
  mutable ports : (int * client_port) list;
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
    correct = (fun _ -> true);
    ports = [];
    link_delay;
    sent_count = refs sent_count_names;
    sent_bytes = refs sent_bytes_names;
    recv_count = refs recv_count_names;
    broadcasts = Obs.Metrics.counter_ref metrics "ss.broadcasts";
  }

let record_send t ~src ~dst ~span cls bytes =
  let i = Obs.Event.class_index cls in
  incr t.sent_count.(i);
  (t.sent_bytes.(i) := !(t.sent_bytes.(i)) + bytes);
  let hub = Sim.Engine.hub t.engine in
  if Obs.Hub.active hub then
    Obs.Hub.emit hub
      (Obs.Event.Send
         {
           time = Sim.Vtime.to_int (Sim.Engine.now t.engine);
           src;
           dst;
           cls;
           bytes;
           span;
         })

let record_recv t ~src ~dst ~span cls bytes =
  incr t.recv_count.(Obs.Event.class_index cls);
  let hub = Sim.Engine.hub t.engine in
  if Obs.Hub.active hub then
    Obs.Hub.emit hub
      (Obs.Event.Recv
         {
           time = Sim.Vtime.to_int (Sim.Engine.now t.engine);
           src;
           dst;
           cls;
           bytes;
           span;
         })

let engine t = t.engine

let params t = t.params

let endpoints t = t.endpoints

let set_correct t f = t.correct <- f

let is_correct t i = t.correct i

let round_modulus = 1 lsl 30

(* "c100->s3" and friends: the model checker names links (and parses
   their endpoints) by these strings.  Each client port builds 2n of
   them, so no [Printf]. *)
let link_name p a arrow b =
  let buf = Buffer.create 16 in
  Buffer.add_string buf p;
  Value.add_decimal buf a;
  Buffer.add_string buf arrow;
  Value.add_decimal buf b;
  Buffer.contents buf

let add_client t ~id =
  match List.assoc_opt id t.ports with
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
    let port =
      match t.medium with
      | Reliable_fifo ->
        let to_servers =
          Array.init n (fun s ->
              Sim.Link.create ~engine:t.engine ~delay:(mk_sampler ())
                ~name:(link_name "c" id "->s" s)
                ~deliver:(fun env -> t.endpoints.(s).on_deliver env))
        in
        let from_servers =
          Array.init n (fun s ->
              Sim.Link.create ~engine:t.engine ~delay:(mk_sampler ())
                ~name:(link_name "s" s "->c" id)
                ~deliver:(fun env ->
                  record_recv t
                    ~src:(Obs.Event.Server env.Messages.server)
                    ~dst:(Obs.Event.Client id)
                    ~span:env.Messages.span
                    (Messages.class_of_to_client env.Messages.body)
                    (Messages.client_envelope_bytes env);
                  Sim.Mailbox.push mailbox env))
        in
        {
          client_id = id;
          mailbox;
          to_servers;
          from_servers;
          round = 0;
          transport = Direct;
          health;
          retry_rng;
        }
      | Stabilizing { loss; dup; retrans } ->
        let rng () = Sim.Rng.split (Sim.Engine.rng t.engine) in
        let to_servers =
          Array.init n (fun s ->
              Ss_transport.create ~engine:t.engine ~rng:(rng ())
                ~delay:(mk_sampler ()) ~loss ~dup ~retrans
                ~classify:(fun (env : Messages.server_envelope) ->
                  Messages.class_of_to_server env.body)
                ~name:(link_name "c" id "=>s" s)
                ~deliver:(fun env -> t.endpoints.(s).on_deliver env)
                ())
        in
        let reply_senders =
          Array.init n (fun s ->
              Ss_transport.create ~engine:t.engine ~rng:(rng ())
                ~delay:(mk_sampler ()) ~loss ~dup ~retrans
                ~classify:(fun (env : Messages.client_envelope) ->
                  Messages.class_of_to_client env.body)
                ~name:(link_name "s" s "=>c" id)
                ~deliver:(fun env ->
                  record_recv t
                    ~src:(Obs.Event.Server env.Messages.server)
                    ~dst:(Obs.Event.Client id)
                    ~span:env.Messages.span
                    (Messages.class_of_to_client env.Messages.body)
                    (Messages.client_envelope_bytes env);
                  Sim.Mailbox.push mailbox env)
                ())
        in
        {
          client_id = id;
          mailbox;
          to_servers = [||];
          from_servers = [||];
          round = 0;
          transport = Lossy { to_servers; reply_senders };
          health;
          retry_rng;
        }
    in
    t.ports <- (id, port) :: t.ports;
    port

let client_ports t =
  List.sort (fun (a, _) (b, _) -> Int.compare a b) t.ports

let reply ?(parent = Obs.Trace_ctx.none) t ~server ~client body ~round =
  match List.assoc_opt client t.ports with
  | None -> ()
  | Some port -> (
    (* The acknowledgment is a new causal node under the broadcast round
       it answers (or a fresh root for unsolicited Byzantine chatter). *)
    let span = Obs.Trace_ctx.child (Sim.Engine.spans t.engine) parent in
    let env = { Messages.round; server; body; span } in
    record_send t
      ~src:(Obs.Event.Server server)
      ~dst:(Obs.Event.Client client)
      ~span
      (Messages.class_of_to_client body)
      (Messages.client_envelope_bytes env);
    match port.transport with
    | Direct -> Sim.Link.send port.from_servers.(server) env
    | Lossy { reply_senders; _ } ->
      Ss_transport.send reply_senders.(server) env)

let install_honest_server t srv =
  let s = Server.id srv in
  t.endpoints.(s).on_deliver <-
    (fun env ->
      record_recv t
        ~src:(Obs.Event.Client env.Messages.client)
        ~dst:(Obs.Event.Server s)
        ~span:env.Messages.span
        (Messages.class_of_to_server env.Messages.body)
        (Messages.server_envelope_bytes env);
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
      match Server.handle srv env with
      | None -> ()
      | Some body ->
        reply ~parent:env.Messages.span t ~server:s ~client:env.Messages.client
          body ~round:env.Messages.round)

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
  let cls = Messages.class_of_to_server body in
  let env_bytes = Messages.server_envelope_bytes env in
  for s = 0 to t.params.Params.n - 1 do
    record_send t
      ~src:(Obs.Event.Client port.client_id)
      ~dst:(Obs.Event.Server s) ~span:bspan cls env_bytes
  done;
  (* Synchronized delivery: the invocation spans the first (n - 2t) correct
     deliveries.  If the adversary corrupts more than t servers (tightness
     experiments), fall back to the last correct delivery so the broadcast
     still terminates. *)
  let quorum = t.params.Params.n - (2 * t.params.Params.f) in
  let correct_total =
    let c = ref 0 in
    for s = 0 to t.params.Params.n - 1 do
      if t.correct s then incr c
    done;
    !c
  in
  let target = min quorum correct_total in
  (* Both transports count actual delivery callbacks rather than
     precomputing arrival instants: the synchronized-delivery property must
     hold under *any* admissible firing order (the model checker reorders
     deliveries across links), not just the heap order of a fresh run. *)
  (match port.transport with
  | Direct ->
    Sim.Fiber.suspend ~label:"Net.ss_broadcast" (fun resume ->
        let confirmed = ref 0 in
        let resumed = ref false in
        let maybe_resume () =
          if (not !resumed) && !confirmed >= target then begin
            resumed := true;
            resume ()
          end
        in
        Array.iteri
          (fun s link ->
            let was_correct = t.correct s in
            ignore
              (Sim.Link.send_timed link
                 ~on_delivered:(fun () ->
                   if was_correct then begin
                     incr confirmed;
                     maybe_resume ()
                   end)
                 env))
          port.to_servers;
        if target = 0 then
          Sim.Engine.schedule t.engine ~delay:0 (fun () ->
              if not !resumed then begin
                resumed := true;
                resume ()
              end))
  | Lossy { to_servers; _ } ->
    Sim.Fiber.suspend ~label:"Net.ss_broadcast" (fun resume ->
        let confirmed = ref 0 in
        let resumed = ref false in
        let maybe_resume () =
          if (not !resumed) && !confirmed >= target then begin
            resumed := true;
            resume ()
          end
        in
        Array.iteri
          (fun s sender ->
            let was_correct = t.correct s in
            Ss_transport.send sender
              ~on_delivered:(fun () ->
                if was_correct then begin
                  incr confirmed;
                  maybe_resume ()
                end)
              env)
          to_servers;
        if target = 0 then
          Sim.Engine.schedule t.engine ~delay:0 (fun () ->
              if not !resumed then begin
                resumed := true;
                resume ()
              end)));
  env.Messages.round

type chaos_dir = [ `To_servers | `From_servers | `Both ]

let set_port_chaos port ?(dir = `Both) ?server ~loss ~dup () =
  match port.transport with
  | Direct -> 0
  | Lossy { to_servers; reply_senders } ->
    let touched = ref 0 in
    let apply arr =
      Array.iteri
        (fun s tr ->
          match server with
          | Some k when k <> s -> ()
          | Some _ | None ->
            Ss_transport.set_loss tr loss;
            Ss_transport.set_dup tr dup;
            incr touched)
        arr
    in
    (match dir with
    | `To_servers -> apply to_servers
    | `From_servers -> apply reply_senders
    | `Both ->
      apply to_servers;
      apply reply_senders);
    !touched

let corrupt_transport port rng =
  match port.transport with
  | Direct -> ()
  | Lossy { to_servers; reply_senders } ->
    Array.iter (fun s -> Ss_transport.corrupt s rng) to_servers;
    Array.iter (fun s -> Ss_transport.corrupt s rng) reply_senders
