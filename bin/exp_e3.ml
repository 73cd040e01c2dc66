(* E3 — Tightness of the asynchronous resilience requirement (Theorem 1).

   Two probes: (a) random schedules with an equivocating Byzantine server
   never starve reads even below n = 8t+1 (the helping path is robust);
   (b) the scripted worst-case scheduler of Harness.Starvation starves
   reads deterministically exactly for n <= 6t, giving the measured
   liveness crossover against this adversary (the paper's 8t+1 also covers
   the helping-refresh interplay of Lemma 2's proof). *)

open Registers

let random_starved ~seed ~n ~f =
  let params = Common.async_params ~n ~f in
  let scn = Common.scenario ~seed ~params () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0
    Byzantine.Behavior.equivocate;
  let w, r = Common.regular_pair scn in
  let starved = ref 0 in
  Common.run_jobs scn
    [
      ( "writer",
        fun () ->
          for i = 1 to 100 do
            ignore (Swsr_regular.write w (Value.int i))
          done );
      ( "reader",
        fun () ->
          for _ = 1 to 12 do
            match Outcome.to_option (Swsr_regular.read ~max_iterations:4 r) with
            | None -> incr starved
            | Some _ -> ()
          done );
    ];
  Common.observe_scn scn;
  !starved

let run ~seed =
  Harness.Report.section "E3: asynchronous liveness vs n (Thm 1, t < n/8)";
  let rows =
    List.map
      (fun (n, f) ->
        let random =
          let s = ref 0 in
          for i = 0 to 3 do
            s := !s + random_starved ~seed:(seed + i) ~n ~f
          done;
          !s
        in
        let scripted =
          Harness.Starvation.run ~n ~f
            ~instrument:(fun e -> Common.attach_trace_sink (Sim.Engine.hub e))
            ()
        in
        [
          string_of_int n;
          string_of_int f;
          (if n >= (8 * f) + 1 then "yes" else "no");
          Printf.sprintf "%d/48" random;
          Common.bool_str
            (Harness.Starvation.predicted_starvation ~n ~f ~sync:false);
          Common.bool_str scripted.Harness.Starvation.starved;
          string_of_int scripted.Harness.Starvation.rounds_used;
        ])
      [
        (5, 1); (6, 1); (7, 1); (8, 1); (9, 1); (10, 1);
        (11, 2); (12, 2); (13, 2); (17, 2);
      ]
  in
  Harness.Report.table
    ~title:"read starvation under an equivocating splitter"
    ~header:
      [
        "n"; "t"; "n>=8t+1"; "random starved"; "predicted (scripted)";
        "scripted starved"; "rounds";
      ]
    rows;
  print_endline
    "  Shape: no starvation at or above the bound; the scripted worst case\n\
    \  starves deterministically for n <= 6t; random schedules never do."
