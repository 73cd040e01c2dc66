(* E12 — Ablations: what each design ingredient of Fig. 3 buys.

   (a) The lines N2–N7 sanity phase: after the reader's (pwsn, pv)
   bookkeeping is corrupted above the writer's counter, how many reads
   return stale values before recovery, with and without the phase?
   Without it, recovery waits for the bounded counter to wrap past the
   corruption (here: a tiny modulus makes that observable; at 2^64 it
   would be the system's lifetime).

   (b) The read quorum on (wsn, value) pairs vs. the regular register's
   value-only cells: measured indirectly as the message/latency premium of
   Fig. 3 over Fig. 2 (also visible in E9). *)

open Registers

let recovery_reads ~seed ~sanity_check =
  let modulus = 101 in
  let params = Common.async_params ~n:9 ~f:1 in
  let scn = Common.scenario ~seed ~params () in
  let net = scn.Harness.Scenario.net in
  let w = Swsr_atomic.writer ~net ~client_id:100 ~inst:0 ~modulus () in
  let r =
    Swsr_atomic.reader ~net ~client_id:101 ~inst:0 ~modulus ~sanity_check ()
  in
  let stale = ref 0 and recovered_at = ref None in
  Common.run_jobs scn
    [
      ( "wr",
        fun () ->
          for i = 1 to 5 do
            ignore (Swsr_atomic.write w (Value.int i))
          done;
          (* Worst-case transient fault: pwsn lands clockwise-AHEAD of the
             writer's counter (5), so the 13M3 guard keeps preferring the
             stale local value until something repairs it. *)
          let rng = Harness.Scenario.split_rng scn in
          Swsr_atomic.corrupt_reader_to r
            ~pwsn:(10 + Sim.Rng.int rng 40)
            ~pv:(Value.str "stale");
          for i = 6 to 105 do
            ignore (Swsr_atomic.write w (Value.int i));
            match Outcome.to_option (Swsr_atomic.read r) with
            | Some v when Value.equal v (Value.int i) ->
              if !recovered_at = None then recovered_at := Some (i - 5)
            | Some _ | None ->
              incr stale;
              recovered_at := None
          done );
    ];
  Common.observe_scn scn;
  (!stale, !recovered_at)

let run ~seed =
  Harness.Report.section "E12: ablation — the lines N2-N7 sanity phase";
  let seeds = 6 in
  let rows =
    List.map
      (fun sanity_check ->
        let stale = ref 0 and worst = ref 0 in
        for s = 0 to seeds - 1 do
          let st, _ = recovery_reads ~seed:(seed + s) ~sanity_check in
          stale := !stale + st;
          worst := max !worst st
        done;
        [
          (if sanity_check then "with sanity phase (paper)" else "ablated");
          Harness.Report.pct !stale (seeds * 100);
          string_of_int !worst;
        ])
      [ true; false ]
  in
  Harness.Report.table
    ~title:
      "reader bookkeeping corrupted after write #5; modulus 101; 100\n\
       subsequent write+read pairs x 6 seeds"
    ~header:[ "variant"; "stale reads"; "worst single-seed stale reads" ]
    rows;
  print_endline
    "  Shape: the sanity phase repairs the reader's (pwsn, pv) from a\n\
    \  helping-value quorum within a read or two; ablated, recovery must\n\
    \  wait for the bounded counter to wrap past the corruption — ~half\n\
    \  the modulus on average, i.e. beyond the system's lifetime at the\n\
    \  paper's 2^64."
