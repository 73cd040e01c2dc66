(* The Figure 1 schedule of the paper, constructed deterministically.

   A completed write of 0 is followed by a write of 1 whose ss-deliveries
   reach servers 1..3 immediately and everyone else only much later, so the
   write stays pending across two reads.  Acknowledgment links are scripted
   so that the first read's (n-t)-ack set excludes server 0 (it sees the
   quorum {s1,s2,s3} carrying 1 first) while the second read's set excludes
   server 8 and includes server 0 (it sees the old-value quorum first).

   On the regular register of Fig. 2 this yields the classic new/old
   inversion: read1 = 1, read2 = 0.  On the practically atomic register of
   Fig. 3 the bounded sequence number makes read2 return the locally stored
   pair instead (line 13M3): read1 = read2 = 1. *)

type outcome = {
  read1 : Registers.Value.t option;
  read2 : Registers.Value.t option;
  write1_pending_during_reads : bool;
  inversion : bool;
  metrics : Obs.Metrics.t;
}

let far = 300 (* "much later": past both reads *)

(* The writer is client 100, the reader client 101.  The writer's
   requests carry WRITE(0), NEW_HELP_VAL(0), then WRITE(1), which is fast
   only to servers 1..3.  The regular read makes one collect per read,
   the atomic read two (sanity phase + loop): server 0's acks to the
   reader are slow for the whole first read, server 8's for the second
   read's final collect. *)
let link_delay kind ~client ~server ~to_server _rng =
  let script =
    match (client, server, to_server) with
    | 100, s, true -> [ 1; 1; (if s >= 1 && s <= 3 then 2 else far) ]
    | 101, 0, false -> (
      match kind with `Regular -> [ far ] | `Atomic -> [ far; far ])
    | 101, 8, false -> (
      match kind with `Regular -> [ 1; far ] | `Atomic -> [ 1; 1; 1; far ])
    | _ -> []
  in
  Script.scripted script 1

let run ?(instrument = fun _ -> ()) kind =
  let params = Registers.Params.create_exn ~n:9 ~f:1 ~mode:Registers.Params.Async () in
  let scn = Scenario.create ~link_delay:(link_delay kind) ~params () in
  instrument scn.Scenario.engine;
  let read1 = ref None and read2 = ref None in
  let write1_start = ref Sim.Vtime.zero and write1_end = ref Sim.Vtime.zero in
  let read1_start = ref Sim.Vtime.zero and read2_start = ref Sim.Vtime.zero in
  let v0 = Registers.Value.int 0 and v1 = Registers.Value.int 1 in
  let jobs write read =
    [
      ( "writer",
        fun () ->
          ignore (write v0);
          write1_start := Scenario.now scn;
          ignore (write v1);
          write1_end := Scenario.now scn );
      ( "reader",
        fun () ->
          Scenario.sleep scn 10;
          read1_start := Scenario.now scn;
          read1 := Registers.Outcome.to_option (read ());
          read2_start := Scenario.now scn;
          read2 := Registers.Outcome.to_option (read ()) );
    ]
  in
  ignore
    (Scenario.run_jobs scn
       (match kind with
       | `Regular ->
         let w, r = Workload.regular_pair scn in
         jobs (Registers.Swsr_regular.write w) (fun () ->
             Registers.Swsr_regular.read r)
       | `Atomic ->
         let w, r = Workload.atomic_pair scn in
         jobs (Registers.Swsr_atomic.write w) (fun () ->
             Registers.Swsr_atomic.read r)));
  let inversion =
    match (!read1, !read2) with
    | Some a, Some b ->
      Registers.Value.equal a v1 && Registers.Value.equal b v0
    | _ -> false
  in
  {
    read1 = !read1;
    read2 = !read2;
    (* Figure 1 requires write(1) concurrent with both reads: it starts
       before read1 and is still incomplete when read2 starts. *)
    write1_pending_during_reads =
      Sim.Vtime.( < ) !write1_start !read1_start
      && Sim.Vtime.( < ) !read2_start !write1_end;
    inversion;
    metrics = Scenario.metrics scn;
  }
