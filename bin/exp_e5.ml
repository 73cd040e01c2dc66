(* E5 — Read termination under concurrent writes; the helping mechanism
   (Lemmas 2 and 10).

   Heavy write pressure (600 back-to-back writes, 100 reads) against one
   equivocating Byzantine server, at and below the paper's sizing.  Report
   the reader's inquiry-loop iterations and how often the helping path
   (lines 14-15) actually answers a read. *)

open Registers

let run_one ~seed ~n ~delay =
  let params = Common.async_params ~n ~f:1 in
  let scn = Common.scenario ~seed ~delay ~params () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0
    Byzantine.Behavior.equivocate;
  let w, r = Harness.Workload.atomic_pair scn in
  Common.run_jobs scn
    [
      ( "writer",
        fun () ->
          for i = 1 to 600 do
            ignore (Swsr_atomic.write w (Value.int i))
          done );
      ( "reader",
        fun () ->
          for _ = 1 to 100 do
            ignore (Swsr_atomic.read r)
          done );
    ];
  Common.observe_scn scn;
  (Swsr_atomic.reader_iterations r, Swsr_atomic.help_returns r)

let run ~seed =
  Harness.Report.section
    "E5: reader cost vs write pressure (helping mechanism, Lemma 2/10)";
  let seeds = 10 in
  let rows =
    List.map
      (fun (n, dhi) ->
        let iters = ref 0 and helps = ref 0 in
        for s = 0 to seeds - 1 do
          let i, h = run_one ~seed:(seed + s) ~n ~delay:(1, dhi) in
          iters := !iters + i;
          helps := !helps + h
        done;
        let reads = seeds * 100 in
        [
          string_of_int n;
          Printf.sprintf "1..%d" dhi;
          Printf.sprintf "%.2f" (float_of_int !iters /. float_of_int reads);
          Printf.sprintf "%d / %d" !helps reads;
        ])
      [ (9, 10); (9, 30); (6, 10); (6, 30); (5, 10); (5, 30) ]
  in
  Harness.Report.table
    ~title:
      "600 back-to-back writes vs 100 reads, t=1, one equivocator; 10 seeds"
    ~header:
      [ "n"; "link delays"; "iterations/read"; "reads answered via helping" ]
    rows;
  print_endline
    "  Shape: at n = 8t+1 every read settles in one round (two in-flight\n\
    \  values plus one junk value cannot defeat a 2t+1 quorum among n-t\n\
    \  acks), so the helping path is pure safety margin.  Below the bound\n\
    \  rounds start failing and the helping value begins answering reads —\n\
    \  increasingly so as n shrinks; without it the scripted scheduler of\n\
    \  E3 starves those reads forever."
