type 'm packet = { bit : bool; payload : 'm }

type 'm session = {
  rng : Sim.Rng.t;
  data : 'm packet Channel.t; (* sender -> receiver *)
  acks : bool Channel.t; (* receiver -> sender: the ack's bit *)
  mutable sender_bit : bool;
  mutable last_rx : 'm packet option;
  mutable delivered_rev : 'm list;
  mutable steps : int;
  mutable sent : int;
}

let create ~rng ~cap ?loss ?dup () =
  let mk () = Channel.create ~rng:(Sim.Rng.split rng) ~cap ?loss ?dup () in
  {
    rng;
    data = mk ();
    acks = Channel.create ~rng:(Sim.Rng.split rng) ~cap ?loss ?dup ();
    sender_bit = false;
    last_rx = None;
    delivered_rev = [];
    steps = 0;
    sent = 0;
  }

let scramble t ~garbage =
  let junk_packets =
    List.map (fun payload -> { bit = Sim.Rng.bool t.rng; payload }) garbage
  in
  Channel.preload t.data junk_packets;
  Channel.preload t.acks
    (List.map (fun _ -> Sim.Rng.bool t.rng) garbage);
  t.sender_bit <- Sim.Rng.bool t.rng;
  t.last_rx <-
    (match junk_packets with p :: _ when Sim.Rng.bool t.rng -> Some p | _ -> None)

(* Receiver step: consume one data packet if available; ack it; deliver on
   a (0,m) -> (1,m) transition. *)
let receiver_step t =
  match Channel.deliver t.data with
  | None -> ()
  | Some p ->
    Channel.send t.acks p.bit;
    (match (t.last_rx, p.bit) with
    | Some prev, true when prev.bit = false ->
      (* (1, m) immediately after (0, m'): the footnote delivers the
         payload of the phase-1 packet. *)
      t.delivered_rev <- p.payload :: t.delivered_rev
    | _ -> ());
    t.last_rx <- Some p

(* One phase of the handshake: push (bit, m) until cap+1 packets arrived
   from the receiver since the phase began.  [deadline] is an absolute
   step count: the budget is per send, while [t.steps] accumulates over
   the session's lifetime. *)
let phase ~deadline t bit m =
  let needed = Channel.capacity t.acks + 1 in
  let got = ref 0 in
  let ok = ref true in
  while !ok && !got < needed do
    if t.steps >= deadline then ok := false
    else begin
      t.steps <- t.steps + 1;
      Channel.send t.data { bit; payload = m };
      t.sent <- t.sent + 1;
      (* Let the medium and receiver make progress a random amount. *)
      for _ = 0 to Sim.Rng.int t.rng 3 do
        receiver_step t
      done;
      match Channel.deliver t.acks with
      | Some _ -> incr got
      | None -> ()
    end
  done;
  !ok

let max_steps = 100_000

let send t m =
  let deadline = t.steps + max_steps in
  t.sender_bit <- false;
  if
    phase ~deadline t false m
    && (t.sender_bit <- true;
        phase ~deadline t true m)
  then Ok ()
  else Error "alt_bit: handshake did not complete within max_steps"

let delivered t = List.rev t.delivered_rev

let take_delivered t =
  let d = delivered t in
  t.delivered_rev <- [];
  d

let steps t = t.steps

let packets_sent t = t.sent
