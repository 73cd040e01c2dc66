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

let write_body = Messages.Write { sn = 1; v = Value.int 7 }

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
             ~filter:Collect.write_filter));
  match !got with
  | None -> Alcotest.fail "collect never returned"
  | Some (a : _ Collect.attempt) ->
    check_true "attempt deadline expired" a.expired;
    check_int "only current-round acks counted" 7 a.acks;
    check_int "stale payload filtered out" 7 (List.length a.payloads)

let test_retry_filters_late_previous_attempt_acks () =
  (* 7 fast slots plus one slow slot that acknowledges every request 100
     ticks later — past the attempt deadline.  During attempt k+1's
     window, the slow ack for attempt k's round arrives; it is tagged
     with the retired round and must not count, so every attempt tops
     out at 7 and the collect ends incomplete. *)
  let engine, net = setup ~honest:7 () in
  let slow = 8 in
  (Net.endpoints net).(slow).Net.on_deliver <-
    (fun (env : Messages.server_envelope) ->
      Sim.Engine.schedule engine ~delay:100 (fun () ->
          Net.reply net ~server:slow ~client:env.Messages.client
            (Messages.Ack_write None) ~round:env.Messages.round));
  let port = Net.add_client net ~id:0 in
  let got = ref None in
  run_engine_fiber engine (fun () ->
      got :=
        Some
          (Collect.retrying ~net ~port ~inst:0 ~body:write_body
             ~filter:Collect.write_filter ()));
  match !got with
  | None -> Alcotest.fail "collect never returned"
  | Some (c : _ Collect.collected) ->
    check_false "never reached the full quota" c.complete;
    check_int "late stale acks never counted" 7 c.acks;
    check_int "all retry attempts spent"
      (Params.retry (Net.params net)).Params.attempts
      c.attempts

let test_retrying_full_service () =
  let engine, net = setup ~honest:9 () in
  let port = Net.add_client net ~id:0 in
  let got = ref None in
  run_engine_fiber engine (fun () ->
      let c =
        Collect.retrying ~net ~port ~inst:0 ~body:write_body
          ~filter:Collect.write_filter ()
      in
      got := Some (c, Collect.judge ~net ~port c));
  match !got with
  | None -> Alcotest.fail "collect never returned"
  | Some ((c : _ Collect.collected), o) ->
    check_true "full quota" c.complete;
    check_int "first try sufficed" 1 c.attempts;
    check_true "judged Ok" (Outcome.is_ok o)

let test_retrying_degraded () =
  (* 5 responders: at least a read quorum (2f+1 = 3) but below the full
     n-f = 8 quota -> Degraded, with the silent slots suspected. *)
  let engine, net = setup ~honest:5 () in
  let port = Net.add_client net ~id:0 in
  let got = ref None in
  run_engine_fiber engine (fun () ->
      let c =
        Collect.retrying ~net ~port ~inst:0 ~body:write_body
          ~filter:Collect.write_filter ()
      in
      got := Some (c, Collect.judge ~net ~port c));
  match !got with
  | None -> Alcotest.fail "collect never returned"
  | Some ((c : _ Collect.collected), o) -> (
    check_false "below the quota" c.complete;
    check_int "best attempt saw the responders" 5 c.acks;
    match o with
    | Outcome.Degraded r ->
      check_int "reason: acks" 5 r.Outcome.acks;
      check_int "reason: need" 8 r.Outcome.need;
      check_true "silent slots suspected" (r.Outcome.suspects <> [])
    | Outcome.Ok _ | Outcome.Timed_out _ ->
      Alcotest.fail "expected Degraded")

let test_retrying_timed_out () =
  (* 2 responders: below even the read quorum -> Timed_out. *)
  let engine, net = setup ~honest:2 () in
  let port = Net.add_client net ~id:0 in
  let got = ref None in
  run_engine_fiber engine (fun () ->
      let c =
        Collect.retrying ~net ~port ~inst:0 ~body:write_body
          ~filter:Collect.write_filter ()
      in
      got := Some (Collect.judge ~net ~port c));
  match !got with
  | None -> Alcotest.fail "collect never returned"
  | Some (Outcome.Timed_out r) ->
    check_int "reason: acks" 2 r.Outcome.acks
  | Some (Outcome.Ok _ | Outcome.Degraded _) ->
    Alcotest.fail "expected Timed_out"

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
  let port = Net.add_client net ~id:0 in
  let got = ref None in
  run_engine_fiber engine (fun () ->
      got :=
        Some
          (Collect.retrying ~net ~port ~inst:0 ~body:write_body
             ~filter:Collect.write_filter ()));
  match !got with
  | Some (c : _ Collect.collected) ->
    check_true "complete" c.complete;
    check_int "one attempt" 1 c.attempts;
    check_int "quota met" 8 c.acks
  | None -> Alcotest.fail "collect never returned"

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
            ~filter:Collect.write_filter
        in
        check_false "a synchronous round is not an expiry" a.expired;
        check_int "the honest slots answered" 3 a.acks;
        ends :=
          (Sim.Vtime.diff (Sim.Engine.now engine) start = timeout) :: !ends
      done;
      let c =
        Collect.retrying ~net ~port ~inst:0 ~body:write_body
          ~filter:Collect.write_filter ()
      in
      check_int "one attempt per collect" 1 c.attempts);
  check_int "every round ended at now + sync_timeout" rounds
    (List.length (List.filter Fun.id !ends));
  check_int "no collect.retries" 0
    (Obs.Metrics.counter (Sim.Engine.metrics engine) "collect.retries");
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
  ]
