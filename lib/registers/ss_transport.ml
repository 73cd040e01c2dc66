type 'm packet = { tag : int; body : 'm }

type 'm t = {
  engine : Sim.Engine.t;
  tag_space : int;
  data : 'm packet Sim.Lossy_link.t;
  acks : int Sim.Lossy_link.t;
  (* sender state *)
  queue : ('m * (unit -> unit) option) Queue.t;
  mutable current : ('m * (unit -> unit) option) option;
  mutable tag : int;
  timer : Sim.Engine.recurring; (* the retransmission timer's action *)
  mutable timer_armed : bool;
  mutable sent_at : Sim.Vtime.t; (* the current message's last transmission *)
  mutable sent : int;
  retrans_ctr : int ref;
  (* receiver state *)
  mutable last_tag : int;
  mutable stale_tag : int;
  mutable stale_streak : int;
  mutable stale_seen_at : Sim.Vtime.t;
}

let resync_threshold = 3

(* Must exceed the round trip of the 1–10 tick links every deployment
   samples (up to 20 ticks), or the sender retransmits packets whose
   acknowledgment is still on its way. *)
let retrans = 30

let xmit t =
  match t.current with
  | None -> ()
  | Some (body, _) ->
    t.sent <- t.sent + 1;
    t.sent_at <- Sim.Engine.now t.engine;
    Sim.Lossy_link.send t.data { tag = t.tag; body }

(* Queue the timer for the current message's deadline, unless it is
   already queued (for this message's deadline or an earlier one). *)
let arm_timer t =
  if not t.timer_armed then begin
    t.timer_armed <- true;
    Sim.Engine.schedule_recurring_at t.engine
      (Sim.Vtime.add t.sent_at retrans)
      t.timer
  end

(* The timer's action: retransmit the unacknowledged message once
   [retrans] ticks have passed since it last went out.  A timer queued
   for an earlier message fires before that deadline: it re-queues
   itself at the deadline instead. *)
let on_timer t =
  t.timer_armed <- false;
  match t.current with
  | Some _ ->
    if Sim.Vtime.diff (Sim.Engine.now t.engine) t.sent_at >= retrans then begin
      incr t.retrans_ctr;
      xmit t
    end;
    arm_timer t
  | None -> ()

let pump t =
  match t.current with
  | Some _ -> ()
  | None ->
    if not (Queue.is_empty t.queue) then begin
      t.current <- Some (Queue.pop t.queue);
      t.tag <- (t.tag + 1) mod t.tag_space;
      xmit t;
      arm_timer t
    end

let on_ack t tag =
  match t.current with
  | Some (_, callback) when tag = t.tag ->
    t.current <- None;
    (match callback with Some f -> f () | None -> ());
    pump t
  | Some _ | None -> () (* stale or spurious acknowledgment *)

(* Receiver: deliver on clockwise-newer tags; resync when the same rejected
   tag keeps arriving (only live retransmissions repeat persistently).
   Crucially, acknowledge ONLY tags that were delivered (now or earlier):
   acknowledging a rejected packet would let the sender advance past a
   message the receiver dropped, losing it for good. *)
let on_packet t ~deliver (pkt : 'm packet) =
  let ack () = Sim.Lossy_link.send t.acks pkt.tag in
  let newer =
    (* Clockwise order with a window of half the tag space. *)
    pkt.tag <> t.last_tag
    && (pkt.tag - t.last_tag + t.tag_space) mod t.tag_space
       < t.tag_space / 2
  in
  if pkt.tag = t.last_tag then begin
    (* Duplicate of the delivered message: re-acknowledge (the previous
       acknowledgment may have been lost). *)
    t.stale_streak <- 0;
    ack ()
  end
  else if newer then begin
    t.last_tag <- pkt.tag;
    t.stale_streak <- 0;
    deliver pkt.body;
    ack ()
  end
  else if pkt.tag = t.stale_tag then begin
    (* Only a live sender repeats a tag at retransmission spacing; stale
       duplicates drain in bursts.  Count the streak only across spaced
       arrivals. *)
    let now = Sim.Engine.now t.engine in
    if Sim.Vtime.diff now t.stale_seen_at >= retrans / 2 then begin
      t.stale_streak <- t.stale_streak + 1;
      t.stale_seen_at <- now
    end;
    if t.stale_streak >= resync_threshold then begin
      (* A persistently repeated "old" tag is the live sender blocked
         behind our corrupted state: adopt it. *)
      t.last_tag <- pkt.tag;
      t.stale_streak <- 0;
      deliver pkt.body;
      ack ()
    end
  end
  else begin
    t.stale_tag <- pkt.tag;
    t.stale_streak <- 1;
    t.stale_seen_at <- Sim.Engine.now t.engine
  end

let create ~engine ~rng ~delay ?(loss = 0.0) ?(dup = 0.0) ?(tag_space = 1024)
    ?classify ~name ~deliver () =
  if tag_space < 8 then invalid_arg "Ss_transport.create: tag space too small";
  let classify_pkt =
    match classify with
    | Some f -> Some (fun pkt -> f pkt.body)
    | None -> None
  in
  (* The links and the timer call back into the transport, which holds
     them: they reach it through [self], assigned once it exists.  Not
     [Lazy]: every force of a lazy value is a C call.  The data link's
     generator is split before the ack link's. *)
  let self = ref None in
  let data =
    Sim.Lossy_link.create ~engine ~rng:(Sim.Rng.split rng) ~delay ~loss ~dup
      ?classify:classify_pkt ~name:(name ^ ".data")
      ~deliver:(fun pkt ->
        match !self with Some t -> on_packet t ~deliver pkt | None -> ())
      ()
  in
  let acks =
    Sim.Lossy_link.create ~engine ~rng:(Sim.Rng.split rng) ~delay ~loss ~dup
      ~classify:(fun _ -> Obs.Event.Link_ack)
      ~name:(name ^ ".ack")
      ~deliver:(fun tag ->
        match !self with Some t -> on_ack t tag | None -> ())
      ()
  in
  let t =
    {
      engine;
      tag_space;
      data;
      acks;
      queue = Queue.create ();
      current = None;
      tag = 0;
      timer =
        Sim.Engine.recurring engine (fun () ->
            match !self with Some t -> on_timer t | None -> ());
      timer_armed = false;
      sent_at = Sim.Vtime.zero;
      sent = 0;
      retrans_ctr =
        Obs.Metrics.counter_ref (Sim.Engine.metrics engine) "transport.retrans";
      last_tag = 0;
      stale_tag = -1;
      stale_streak = 0;
      stale_seen_at = Sim.Vtime.zero;
    }
  in
  self := Some t;
  t

let set_loss t p =
  Sim.Lossy_link.set_loss t.data p;
  Sim.Lossy_link.set_loss t.acks p

let set_dup t p =
  Sim.Lossy_link.set_dup t.data p;
  Sim.Lossy_link.set_dup t.acks p

let send t ?on_delivered m =
  Queue.push (m, on_delivered) t.queue;
  pump t

let pending t =
  Queue.length t.queue + match t.current with Some _ -> 1 | None -> 0

let packets_sent t = t.sent

let corrupt t rng =
  t.tag <- Sim.Rng.int rng t.tag_space;
  t.last_tag <- Sim.Rng.int rng t.tag_space;
  t.stale_streak <- 0;
  t.stale_tag <- -1;
  Sim.Lossy_link.corrupt_in_flight t.data (fun pkt ->
      if Sim.Rng.bool rng then None
      else Some { pkt with tag = Sim.Rng.int rng t.tag_space });
  Sim.Lossy_link.corrupt_in_flight t.acks (fun _ ->
      Some (Sim.Rng.int rng t.tag_space))
