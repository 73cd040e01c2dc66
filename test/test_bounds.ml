open Util
open Registers

(* Resilience-bound tightness (Theorems 1 and 2).

   Liveness: a read round terminates by finding 2t+1 (async) / t+1 (sync)
   identical values among its acknowledgments.  Within the bounds, the
   quorum arithmetic makes some value always reach the threshold; below
   them, a Byzantine splitter plus a write in flight can starve read after
   read.  Safety: a coalition bigger than the assumed t can vouch a forged
   value past the threshold. *)

(* Random schedules essentially never starve reads even well below the
   bounds (the helping path is extremely robust) — a finding recorded in
   EXPERIMENTS.md.  The liveness probes therefore use the adversarially
   scripted schedules of {!Harness.Starvation}. *)

let test_random_schedules_do_not_starve () =
  (* Even at n = 6 (< 8t+1), 8 random seeds of continuous writes plus an
     equivocator never starve a read: the scripted adversary below is
     genuinely needed. *)
  let params = Params.create_unchecked ~n:6 ~f:1 ~mode:Params.Async () in
  let starved = ref 0 in
  for seed = 1 to 8 do
    let scn = Harness.Scenario.create ~seed ~params () in
    Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0
      Byzantine.Behavior.equivocate;
    let w = Swsr_regular.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
    let r = Swsr_regular.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
    run_fibers scn
      [
        ( "writer",
          fun () ->
            for i = 1 to 120 do
              ignore (Swsr_regular.write w (int_value i))
            done );
        ( "reader",
          fun () ->
            for _ = 1 to 15 do
              match
                Outcome.to_option (Swsr_regular.read ~max_iterations:4 r)
              with
              | None -> incr starved
              | Some _ -> ()
            done );
      ]
  done;
  check_int "random schedules never starve" 0 !starved

let test_async_scripted_starvation_crossover () =
  (* Deterministic worst-case scheduling: full starvation exactly for
     n <= 6t, reads return otherwise. *)
  List.iter
    (fun (n, f) ->
      let o = Harness.Starvation.run ~n ~f () in
      let predicted = Harness.Starvation.predicted_starvation ~n ~f ~sync:false in
      check_bool
        (Printf.sprintf "n=%d t=%d matches prediction" n f)
        predicted o.Harness.Starvation.starved)
    [ (5, 1); (6, 1); (7, 1); (9, 1); (11, 2); (12, 2); (13, 2); (17, 2) ]

let test_async_at_bound_never_starves () =
  let o = Harness.Starvation.run ~n:9 ~f:1 () in
  check_false "n = 8t+1 returns" o.Harness.Starvation.starved;
  check_int "first round succeeds" 1 o.Harness.Starvation.rounds_used

let test_sync_scripted_retries_below_bound () =
  (* Synchronous model: below n = 3t+1 the scripted schedule forces the
     reader through failed rounds; at the bound every round succeeds —
     the t < n/3 bound is empirically tight against this adversary. *)
  let below = Harness.Starvation.run ~n:3 ~f:1 ~sync:true () in
  check_true "n = 3t: failed rounds" (below.Harness.Starvation.rounds_used > 1);
  let at = Harness.Starvation.run ~n:4 ~f:1 ~sync:true () in
  check_false "n = 3t+1: returns" at.Harness.Starvation.starved;
  check_int "n = 3t+1: one round" 1 at.Harness.Starvation.rounds_used;
  let below2 = Harness.Starvation.run ~n:6 ~f:2 ~sync:true () in
  check_true "n = 3t (t=2): failed rounds"
    (below2.Harness.Starvation.rounds_used > 1);
  let at2 = Harness.Starvation.run ~n:7 ~f:2 ~sync:true () in
  check_int "n = 3t+1 (t=2): one round" 1 at2.Harness.Starvation.rounds_used

(* Safety: how many colluders does it take to forge a read? *)
let forged_read ~colluders ~seed =
  let scn = async_scenario ~seed () in
  let forged = { Messages.sn = 77; v = Value.str "forged" } in
  for s = 0 to colluders - 1 do
    Byzantine.Adversary.compromise scn.Harness.Scenario.adversary s
      (Byzantine.Behavior.collude ~cell:forged)
  done;
  let w = Swsr_regular.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
  let r = Swsr_regular.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
  let saw_forged = ref false in
  run_fibers scn
    [
      ( "wr",
        fun () ->
          for i = 1 to 5 do
            ignore (Swsr_regular.write w (int_value i));
            match Outcome.to_option (Swsr_regular.read ~max_iterations:8 r) with
            | Some v when Value.equal v (Value.str "forged") ->
              saw_forged := true
            | Some _ | None -> ()
          done );
    ];
  !saw_forged

let test_safety_up_to_2t_colluders () =
  (* Even twice the assumed t colluders cannot reach the 2t+1 threshold. *)
  for seed = 1 to 5 do
    check_false "2t colluders cannot forge" (forged_read ~colluders:2 ~seed)
  done

let test_safety_breaks_at_quorum_colluders () =
  let any = ref false in
  for seed = 1 to 5 do
    if forged_read ~colluders:3 ~seed then any := true
  done;
  check_true "2t+1 colluders forge a read" !any

let tests =
  [
    case "random schedules do not starve" test_random_schedules_do_not_starve;
    case "async scripted starvation crossover" test_async_scripted_starvation_crossover;
    case "async at the bound" test_async_at_bound_never_starves;
    case "sync scripted retries below the bound" test_sync_scripted_retries_below_bound;
    case "safety holds vs 2t colluders" test_safety_up_to_2t_colluders;
    case "safety breaks at 2t+1 colluders" test_safety_breaks_at_quorum_colluders;
  ]
