(* The deadline-bounded collect layer: round-mismatch filtering, the
   retry loop, and the Ok / Degraded / Timed_out classification.

   Each test wires a bare net with honest automatons on a chosen subset
   of the server slots — the silent remainder is how we starve a collect
   of its quota without any Byzantine machinery. *)

open Util
open Registers

let setup ?(n = 9) ?(f = 1) ?(honest = 9) ?(seed = 5) () =
  let rng = Sim.Rng.create seed in
  let engine = Sim.Engine.create ~rng:(Sim.Rng.split rng) () in
  let params =
    Params.create_exn ~retry:Params.default_retry ~n ~f ~mode:Params.Async ()
  in
  let net =
    Net.create ~engine ~params ~link_delay:(fun rng ->
        Sim.Link.uniform rng ~lo:1 ~hi:10) ()
  in
  for i = 0 to honest - 1 do
    Net.install_honest_server net (Server.create ~id:i)
  done;
  (engine, net)

let write_cell = { Messages.sn = 1; v = Value.int 7 }

let write_body = Messages.Write write_cell

(* One register WRITE of [write_cell] — WRITE rounds retried until the
   full quota answers or the policy's attempts run out, then the
   helping-value refresh — driven in the calling fiber as one leaf
   operation, so a failed outcome names the port's suspects. *)
let write_once ~engine ~net ~port =
  let site =
    Collect.site ~engine ~params:(Net.params net) ~client:port.Net.client_id
      ~inst:0 ~reg:"collect" `Write
  in
  Collect.run ~net ~port ()
    (Collect.scoped ~leaf:true site.Collect.probe (Collect.write_round site write_cell))

let retries engine = Obs.Metrics.counter (Sim.Engine.metrics engine) "collect.retries"

(* The write's outcome, and whether its first attempt sufficed. *)
let run_write engine net =
  let port = Net.add_client net ~id:0 in
  let got = ref None in
  run_engine_fiber engine (fun () ->
      let o = write_once ~engine ~net ~port in
      got := Some (o, Int.equal (retries engine) 0));
  match !got with
  | None -> Alcotest.fail "collect never returned"
  | Some got -> got

let shortfall = function
  | Outcome.Degraded r | Outcome.Timed_out r -> r
  | Outcome.Ok () -> Alcotest.fail "expected a shortfall, got Ok"

let test_attempt_ignores_stale_round () =
  (* 7 honest slots against an ack_wait quota of 8; slot 8 answers with
     the PREVIOUS round's tag.  If the round filter leaked, the stale
     ack would complete the quota; instead the attempt must expire with
     exactly the 7 legitimate acknowledgments. *)
  let engine, net = setup ~honest:7 () in
  let port = Net.add_client net ~id:0 in
  let got = ref None in
  run_engine_fiber engine (fun () ->
      let round = Net.ss_broadcast net port ~inst:0 write_body in
      Net.reply net ~server:8 ~client:0 (Messages.Ack_write None)
        ~round:(round - 1);
      got :=
        Some
          (Collect.attempt_once ~net ~port ~round ~attempt:0
             ~wanted:Collect.Write_acks));
  match !got with
  | None -> Alcotest.fail "collect never returned"
  | Some (a : Collect.attempt) ->
    check_true "attempt deadline expired" a.expired;
    check_int "only current-round acks counted" 7 a.acks;
    check_int "stale payload filtered out" 7
      (Array.fold_left
         (fun k body -> if body != Collect.no_answer then k + 1 else k)
         0 a.answers);
    check_true "stale slot left empty" (a.answers.(8) == Collect.no_answer)

let test_retry_filters_late_previous_attempt_acks () =
  (* 7 fast slots plus one slow slot that acknowledges every request 100
     ticks later — past the attempt deadline.  During attempt k+1's
     window, the slow ack for attempt k's round arrives; it is tagged
     with the retired round and must not count, so every attempt tops
     out at 7 and the write ends short of its quota. *)
  let engine, net = setup ~honest:7 () in
  let slow = 8 in
  (Net.endpoints net).(slow).Net.on_deliver <-
    (fun (env : Messages.server_envelope) ->
      Sim.Engine.schedule engine ~delay:100 (fun () ->
          Net.reply net ~server:slow ~client:env.Messages.client
            (Messages.Ack_write None) ~round:env.Messages.round));
  let o, _ = run_write engine net in
  check_false "never reached the full quota" (Outcome.is_ok o);
  let r = shortfall o in
  check_int "late stale acks never counted" 7 r.Outcome.acks;
  check_int "all retry attempts spent"
    (Params.retry (Net.params net)).Params.attempts
    r.Outcome.attempts

let test_retrying_full_service () =
  let engine, net = setup ~honest:9 () in
  let o, first_try = run_write engine net in
  check_true "full quota, judged Ok" (Outcome.is_ok o);
  check_true "first try sufficed" first_try

let test_retrying_degraded () =
  (* 5 responders: at least a read quorum (2f+1 = 3) but below the full
     n-f = 8 quota -> Degraded, with the silent slots suspected. *)
  let engine, net = setup ~honest:5 () in
  match run_write engine net with
  | Outcome.Degraded r, _ ->
    check_int "reason: acks, the best attempt's responders" 5 r.Outcome.acks;
    check_int "reason: need" 8 r.Outcome.need;
    check_true "silent slots suspected" (r.Outcome.suspects <> [])
  | (Outcome.Ok _ | Outcome.Timed_out _), _ -> Alcotest.fail "expected Degraded"

let test_retrying_timed_out () =
  (* 2 responders: below even the read quorum -> Timed_out. *)
  let engine, net = setup ~honest:2 () in
  match run_write engine net with
  | Outcome.Timed_out r, _ -> check_int "reason: acks" 2 r.Outcome.acks
  | (Outcome.Ok _ | Outcome.Degraded _), _ -> Alcotest.fail "expected Timed_out"

(* --- the paper's wait: [Params.paper_wait] -------------------------- *)

let paper_net ~mode ~n ~f ~honest =
  let rng = Sim.Rng.create 5 in
  let engine = Sim.Engine.create ~rng:(Sim.Rng.split rng) () in
  let params = Params.create_exn ~retry:Params.paper_wait ~n ~f ~mode () in
  let net =
    Net.create ~engine ~params ~link_delay:(fun rng ->
        Sim.Link.uniform rng ~lo:1 ~hi:10) ()
  in
  for i = 0 to honest - 1 do
    Net.install_honest_server net (Server.create ~id:i)
  done;
  (engine, net)

let test_paper_wait_async () =
  (* Asynchronous: block for the n - t quota, in one attempt. *)
  let engine, net = paper_net ~mode:Params.Async ~n:9 ~f:1 ~honest:9 in
  check_int "the quota is n - t" 8 (Params.write_ok_threshold (Net.params net));
  let o, first_try = run_write engine net in
  check_true "complete: quota met" (Outcome.is_ok o);
  check_true "one attempt" first_try

let test_paper_wait_sync_silent_slot () =
  (* Synchronous with one silent slot: every round waits out exactly the
     round-trip bound, which is the normal end of a synchronous round —
     no expiry, no retry, and (the rule the model checker's state merging
     relies on, since its fingerprints leave Health out) no suspicion,
     however many rounds the slot stays silent. *)
  let mode = Params.Sync { max_delay = 10; slack = 3 } in
  let engine, net = paper_net ~mode ~n:4 ~f:1 ~honest:3 in
  let timeout =
    match Params.sync_timeout (Net.params net) with
    | Some t -> t
    | None -> Alcotest.fail "sync mode has a round-trip bound"
  in
  let port = Net.add_client net ~id:0 in
  let rounds = 5 in
  let ends = ref [] in
  run_engine_fiber engine (fun () ->
      for attempt = 0 to rounds - 1 do
        let round = Net.ss_broadcast net port ~inst:0 write_body in
        let start = Sim.Engine.now engine in
        let a =
          Collect.attempt_once ~net ~port ~round ~attempt
            ~wanted:Collect.Write_acks
        in
        check_false "a synchronous round is not an expiry" a.expired;
        check_int "the honest slots answered" 3 a.acks;
        ends :=
          (Sim.Vtime.diff (Sim.Engine.now engine) start = timeout) :: !ends
      done;
      check_true "the write is served" (Outcome.is_ok (write_once ~engine ~net ~port));
      check_int "one attempt per collect: no retry" 0 (retries engine));
  check_int "every round ended at now + sync_timeout" rounds
    (List.length (List.filter Fun.id !ends));
  check_int "no collect.retries" 0 (retries engine);
  check_true "no server suspected" (Health.suspects port.Net.health = [])

let test_worse_keeps_first_on_ties () =
  let ok_value = function
    | Outcome.Ok v -> v
    | Outcome.Degraded _ | Outcome.Timed_out _ -> -1
  in
  check_int "Ok vs Ok keeps a" 1
    (ok_value (Outcome.worse (Outcome.Ok 1) (Outcome.Ok 2)));
  let r = { Outcome.no_reason with Outcome.acks = 3 } in
  check_int "a failure beats Ok on either side" 1
    (Outcome.rank (Outcome.worse (Outcome.Ok 1) (Outcome.Degraded r)));
  check_int "Timed_out is the worst" 2
    (Outcome.rank (Outcome.worse (Outcome.Degraded r) (Outcome.Timed_out r)))

(* --- golden runs: the collect path's observable schedule -------------- *)

(* Two kv clients over three keys, driven event by event.  The summary
   pins what the wait of every round decides: each op's outcome and
   virtual duration, the retries, the final clock, and a digest of the
   (time, link) of every link delivery in firing order — a deadline
   that fires one event too early or too late within its instant moves
   the digest even when no outcome changes.  A request is logged by a
   wrapper around its server's handler, re-wrapped whenever a crash or
   recovery replaces the handler; an acknowledgment by a hub sink on its
   [Recv] event.  [byz] compromises slots with behaviors built from
   their automaton. *)
let golden_summary ~seed ~params ?(byz = []) ?crash () =
  let scn = Harness.Scenario.create ~seed ~params () in
  let engine = scn.Harness.Scenario.engine in
  let adv = scn.Harness.Scenario.adversary in
  let deliveries = Buffer.create 4096 and count = ref 0 in
  let log_delivery src dst =
    incr count;
    Printf.bprintf deliveries "%d link:%s->%s;" (Sim.Vtime.to_int (Sim.Engine.now engine)) src dst
  in
  let endpoints = Net.endpoints scn.Harness.Scenario.net in
  let observe s =
    let handler = endpoints.(s).Net.on_deliver in
    endpoints.(s).Net.on_deliver <-
      (fun (env : Messages.server_envelope) ->
        log_delivery (Printf.sprintf "c%d" env.Messages.client) (Printf.sprintf "s%d" s);
        handler env)
  in
  Obs.Hub.attach (Sim.Engine.hub engine)
    (function
      | Obs.Event.Recv { src = Obs.Event.Server s; dst = Obs.Event.Client c; _ } ->
        log_delivery (Printf.sprintf "s%d" s) (Printf.sprintf "c%d" c)
      | _ -> ());
  List.iter
    (fun (s, behavior) ->
      Byzantine.Adversary.compromise adv s
        (behavior (Byzantine.Adversary.server adv s)))
    byz;
  Array.iteri (fun s _ -> observe s) endpoints;
  Option.iter
    (fun (s, down, up) ->
      Sim.Engine.schedule_at engine (Sim.Vtime.of_int down) (fun () ->
          Byzantine.Adversary.crash adv s;
          observe s);
      Sim.Engine.schedule_at engine (Sim.Vtime.of_int up) (fun () ->
          Server.reset (Byzantine.Adversary.server adv s);
          Byzantine.Adversary.recover adv s;
          observe s))
    crash;
  let keys = [| "a"; "b"; "c" |] in
  let cfg = Kv.Store.config ~keys:(Array.to_list keys) ~clients:2 in
  let logs = Array.make 2 [] in
  let client id () =
    let st =
      Kv.Store.client ~net:scn.Harness.Scenario.net ~cfg ~id ~client_id:(100 + id)
    in
    for i = 0 to 11 do
      let inv = Sim.Engine.now engine in
      let rank =
        if i mod 3 = id then
          Outcome.rank (Kv.Store.set_o st ~key:keys.(i mod 3) (int_value i))
        else Outcome.rank (Kv.Store.get_o st ~key:keys.((i + id) mod 3))
      in
      let dt = Sim.Vtime.diff (Sim.Engine.now engine) inv in
      logs.(id) <- Printf.sprintf "%d:%d" rank dt :: logs.(id)
    done
  in
  let handles = List.init 2 (fun id -> Sim.Fiber.spawn (client id)) in
  while Sim.Engine.step engine do () done;
  List.iter
    (fun h -> check_true "client finished" (Sim.Fiber.status h = Sim.Fiber.Done))
    handles;
  Printf.sprintf "%s | %s | retries=%d clock=%d deliveries=%d digest=%s"
    (String.concat " " (List.rev logs.(0)))
    (String.concat " " (List.rev logs.(1)))
    (Obs.Metrics.counter (Sim.Engine.metrics engine) "collect.retries")
    (Sim.Vtime.to_int (Sim.Engine.now engine))
    !count
    (Digest.to_hex (Digest.string (Buffer.contents deliveries)))

let check_golden name expected got =
  Alcotest.(check string) name expected got

let test_golden_clean () =
  let params =
    Params.create_exn ~retry:Params.default_retry ~n:9 ~f:1 ~mode:Params.Async ()
  in
  check_golden "clean kv run"
    "0:106 0:58 0:56 0:97 0:61 0:60 0:99 0:58 0:57 0:108 0:60 0:61 | 0:59 0:108 0:59 0:59 0:106 0:58 0:59 0:103 0:64 0:65 0:91 0:65 | retries=0 clock=947 deliveries=2151 digest=654093c2cf1bb18d1c069cdab1f3dc84"
    (golden_summary ~seed:11 ~params ())

let silent _ = Byzantine.Behavior.silent

(* One silent slot plus a crash window: 7 of 9 slots answer an n - t = 8
   quota, so rounds inside the window expire, back off and retry.  A slow
   slot's acks land close to the 60-tick deadline, before or after it,
   at instants where other deliveries are due too. *)
let test_golden_timeouts () =
  let params =
    Params.create_exn ~retry:Params.default_retry ~n:9 ~f:1 ~mode:Params.Async ()
  in
  check_golden "silent slot + crash window"
    "1:863 0:244 0:234 0:365 0:241 0:246 0:367 0:254 0:242 0:383 0:228 0:231 | 0:253 1:784 0:246 0:242 0:389 0:246 0:238 0:365 0:237 0:228 0:371 0:226 | retries=11 clock=3911 deliveries=2215 digest=6ab5db2dfebe57cafc8b466f8be9d809"
    (golden_summary ~seed:12 ~params
       ~byz:[ (0, silent); (5, Byzantine.Behavior.delayed ~by:48) ]
       ~crash:(3, 150, 900) ())

(* Synchronous rounds under the paper's wait end at [Params.sync_timeout]:
   with a silent slot no round reaches the n quota, so every one of them
   runs to that deadline, which a slow slot's acks straddle. *)
let test_golden_sync () =
  let params =
    Params.create_exn ~retry:Params.paper_wait ~n:4 ~f:1
      ~mode:(Params.Sync { max_delay = 10; slack = 3 }) ()
  in
  check_golden "sync rounds"
    "0:197 0:120 0:127 0:191 0:118 0:120 0:187 0:124 0:120 0:195 0:125 0:126 | 0:118 0:195 0:122 0:117 0:197 0:113 0:114 0:192 0:123 0:125 0:194 0:114 | retries=0 clock=1750 deliveries=848 digest=3306771ec53c583ae9f8d1e5f52c8fc8"
    (golden_summary ~seed:13 ~params
       ~byz:[ (2, silent); (1, Byzantine.Behavior.delayed ~by:9) ]
       ())

let tests =
  [
    case "Outcome.worse keeps a on ties" test_worse_keeps_first_on_ties;
    case "attempt ignores stale rounds" test_attempt_ignores_stale_round;
    case "retry filters late previous-attempt acks"
      test_retry_filters_late_previous_attempt_acks;
    case "retrying: full service" test_retrying_full_service;
    case "retrying: degraded" test_retrying_degraded;
    case "retrying: timed out" test_retrying_timed_out;
    case "paper_wait async: one attempt" test_paper_wait_async;
    case "paper_wait sync: rounds end at the bound"
      test_paper_wait_sync_silent_slot;
    case "golden: clean kv run" test_golden_clean;
    case "golden: silent slot and crash window" test_golden_timeouts;
    case "golden: sync rounds" test_golden_sync;
  ]
