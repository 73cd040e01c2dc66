type event = { time : Vtime.t; seq : int; label : string; action : unit -> unit }

type ready_event = { r_time : Vtime.t; r_seq : int; r_label : string }

type t = {
  mutable clock : Vtime.t;
  mutable next_seq : int;
  queue : event Heap.t;
  rng : Rng.t;
  trace : Trace.t;
}

let compare_event a b =
  let c = Vtime.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create ?trace ~rng () =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  { clock = Vtime.zero; next_seq = 0; queue = Heap.create ~cmp:compare_event; rng; trace }

let now t = t.clock

let rng t = t.rng

let trace t = t.trace

let metrics t = Trace.metrics t.trace

let hub t = Trace.hub t.trace

let spans t = Trace.spans t.trace

let schedule_at ?(label = "") t time action =
  let time = Vtime.max time t.clock in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.push t.queue { time; seq; label; action }

let schedule ?label t ~delay action =
  schedule_at ?label t (Vtime.add t.clock (max delay 0)) action

(* The single place an event is consumed: run, step and fire all funnel
   through here, so they cannot disagree on clock handling. *)
let fire_event t ev =
  t.clock <- Vtime.max t.clock ev.time;
  ev.action ()

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some ev ->
    fire_event t ev;
    true

let run ?until ?(max_events = max_int) t =
  let fired = ref 0 in
  let continue = ref true in
  while !continue && !fired < max_events do
    match Heap.pop t.queue with
    | None -> continue := false
    | Some ev ->
      let past_deadline =
        match until with Some u -> Vtime.( < ) u ev.time | None -> false
      in
      if past_deadline then begin
        (* Not consumed: push it back.  The heap orders by (time, seq)
           and the event keeps its original seq, so the order observed
           by a later run/step is exactly as if it had never moved. *)
        Heap.push t.queue ev;
        continue := false
      end
      else begin
        incr fired;
        fire_event t ev
      end
  done;
  match until with
  | Some u when Vtime.( < ) t.clock u && !fired < max_events -> t.clock <- u
  | _ -> ()

let ready t =
  let acc = ref [] in
  Heap.iter_unordered t.queue (fun ev ->
      acc := { r_time = ev.time; r_seq = ev.seq; r_label = ev.label } :: !acc);
  List.sort
    (fun a b ->
      let c = Vtime.compare a.r_time b.r_time in
      if c <> 0 then c else Int.compare a.r_seq b.r_seq)
    !acc

let fire t ~seq =
  match Heap.take t.queue (fun ev -> ev.seq = seq) with
  | None -> false
  | Some ev ->
    fire_event t ev;
    true

let advance_to t time = if Vtime.( < ) t.clock time then t.clock <- time

let fire_labeled t ~label ~not_before =
  match Heap.take t.queue (fun ev -> String.equal ev.label label) with
  | None -> false
  | Some ev ->
    advance_to t not_before;
    fire_event t ev;
    true

let pending t = Heap.length t.queue

let quiescent t = Heap.is_empty t.queue
