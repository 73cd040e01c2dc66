type 'm wait =
  | Idle
  | Recv of ('m -> unit)
  | Collect of {
      consider : 'm -> bool;
      resume : bool -> unit;
      timer : Engine.timer option; (* the deadline, for a bounded wait *)
    }

type 'm t = {
  queue : 'm Queue.t;
  mutable wait : 'm wait;
  mutable timer : Engine.timer option; (* the deadline of the latest bounded wait *)
  mutable timers : int; (* timers made so far; the last one is [timer] *)
}

let create () = { queue = Queue.create (); wait = Idle; timer = None; timers = 0 }

let push t m =
  match t.wait with
  | Idle -> Queue.push m t.queue
  | Recv resume ->
    t.wait <- Idle;
    resume m
  | Collect c ->
    if c.consider m then begin
      t.wait <- Idle;
      c.resume true
    end
    else
      (* Re-arm in place: the deadline keeps its instant and moves to
         its tail, so it still fires after everything scheduled for that
         instant so far. *)
      Option.iter (fun tm -> Engine.arm tm (Engine.due tm)) c.timer

let check_idle t =
  match t.wait with
  | Idle -> ()
  | Recv _ | Collect _ -> invalid_arg "Mailbox: a fiber is already waiting"

let recv t =
  if not (Queue.is_empty t.queue) then Queue.pop t.queue
  else
    Fiber.suspend ~label:"Mailbox.recv" (fun resume ->
        check_idle t;
        t.wait <- Recv resume)

let expire t =
  match t.wait with
  | Collect { timer = Some _; resume; _ } ->
    t.wait <- Idle;
    resume false
  | Collect { timer = None; _ } | Recv _ | Idle -> ()

let fresh_timer ~engine t =
  t.timers <- t.timers + 1;
  let id = t.timers in
  let tm = Engine.timer engine (fun () -> if id = t.timers then expire t) in
  t.timer <- Some tm;
  tm

(* A bounded wait moves the mailbox's timer to its deadline, dropping the
   settled deadline of an earlier wait the timer may still carry: the
   new instant is no earlier, so the run's last event stays where it
   was.  A settled deadline later than the new one must stay queued, so
   it is left inert and a fresh timer takes over. *)
let arm_deadline ~engine t deadline =
  let deadline = Vtime.max deadline (Engine.now engine) in
  let tm =
    match t.timer with
    | Some tm when Vtime.( <= ) (Engine.due tm) deadline -> tm
    | Some _ | None -> fresh_timer ~engine t
  in
  Engine.arm tm deadline

let rec drain_into t consider =
  (not (Queue.is_empty t.queue))
  && (consider (Queue.pop t.queue) || drain_into t consider)

let collect ~engine ~deadline t consider =
  drain_into t consider
  || Fiber.suspend ~label:"Mailbox.collect" (fun resume ->
         check_idle t;
         let timer =
           match deadline with
           | None -> None
           | Some d ->
             arm_deadline ~engine t d;
             t.timer
         in
         t.wait <- Collect { consider; resume; timer })

let drain t =
  let rec loop acc =
    if Queue.is_empty t.queue then List.rev acc
    else loop (Queue.pop t.queue :: acc)
  in
  loop []

let length t = Queue.length t.queue
