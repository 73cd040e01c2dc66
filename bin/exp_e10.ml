(* E10 — Mobile Byzantine faults (footnote 1): the compromised server moves
   between operations; the released machine resumes the honest automaton
   over arbitrary state.  The register re-establishes correctness after
   every move. *)

open Registers

let run_one ~seed ~moves =
  let params = Common.async_params ~n:9 ~f:1 in
  let scn = Common.scenario ~seed ~params () in
  let adv = scn.Harness.Scenario.adversary in
  Byzantine.Adversary.compromise adv 0 Byzantine.Behavior.garbage;
  let w, r = Common.atomic_pair scn in
  let correct = ref 0 and total = ref 0 in
  Common.run_jobs scn
    [
      ( "wr",
        fun () ->
          for i = 1 to moves do
            ignore (Swsr_atomic.write w (Value.int i));
            incr total;
            (match Outcome.to_option (Swsr_atomic.read r) with
            | Some v when Value.equal v (Value.int i) -> incr correct
            | Some _ | None -> ());
            Byzantine.Adversary.move adv ~from:((i - 1) mod 9) ~to_:(i mod 9)
              Byzantine.Behavior.garbage
          done );
    ];
  Common.observe_scn scn;
  (!correct, !total)

let run ~seed =
  Harness.Report.section "E10: mobile Byzantine faults (footnote 1)";
  let rows =
    List.map
      (fun moves ->
        let correct = ref 0 and total = ref 0 in
        let seeds = 5 in
        for s = 0 to seeds - 1 do
          let c, t = run_one ~seed:(seed + s) ~moves in
          correct := !correct + c;
          total := !total + t
        done;
        [ string_of_int moves; Harness.Report.pct !correct !total ])
      [ 9; 18; 36 ]
  in
  Harness.Report.table
    ~title:
      "fault moves to the next server after every write+read; released\n\
       servers resume over arbitrary state"
    ~header:[ "moves"; "reads returning the just-written value" ]
    rows;
  print_endline
    "  Shape: 100% — each write re-populates n-2t correct servers, so\n\
    \  mobility between operations never breaks the register."
