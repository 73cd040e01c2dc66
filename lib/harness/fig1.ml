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

let scripted = Script.scripted

let far = 300 (* "much later": past both reads *)

let build_link_delay kind =
  (* Links are created in a fixed order: the writer's client port first
     (9 client->server links, then 9 server->client links), then the
     reader's.  The factory keys each link's script off that order. *)
  let call = ref 0 in
  fun _rng ->
    incr call;
    let c = !call in
    if c <= 9 then begin
      (* writer -> server (c-1): WRITE(0), NEW_HELP_VAL(0), then WRITE(1)
         which is fast only to servers 1..3. *)
      let server = c - 1 in
      let w1 = if server >= 1 && server <= 3 then 2 else far in
      scripted [ 1; 1; w1 ] 1
    end
    else if c <= 18 then scripted [] 1 (* server -> writer acks *)
    else if c <= 27 then scripted [] 1 (* reader -> server *)
    else begin
      (* server (c-28) -> reader acknowledgments.  The regular read makes
         one collect per read; the atomic read makes two (sanity phase +
         loop).  Server 0's acks are slow for the whole first read, server
         8's ack is slow for the second read's final collect. *)
      let server = c - 28 in
      match (kind, server) with
      | `Regular, 0 -> scripted [ far ] 1
      | `Regular, 8 -> scripted [ 1; far ] 1
      | `Atomic, 0 -> scripted [ far; far ] 1
      | `Atomic, 8 -> scripted [ 1; 1; 1; far ] 1
      | (`Regular | `Atomic), _ -> scripted [] 1
    end

let run ?(instrument = fun _ -> ()) kind =
  let params = Registers.Params.create_exn ~n:9 ~f:1 ~mode:Registers.Params.Async () in
  let rng = Sim.Rng.create 1 in
  let engine = Sim.Engine.create ~rng () in
  instrument engine;
  let net =
    Registers.Net.create ~engine ~params ~link_delay:(build_link_delay kind) ()
  in
  let servers = Array.init 9 (fun id -> Registers.Server.create ~id) in
  Array.iter (Registers.Net.install_honest_server net) servers;
  let sleep d = Sim.Fiber.suspend (fun k -> Sim.Engine.schedule engine ~delay:d k) in
  let read1 = ref None and read2 = ref None in
  let write1_start = ref Sim.Vtime.zero and write1_end = ref Sim.Vtime.zero in
  let read1_start = ref Sim.Vtime.zero and read2_start = ref Sim.Vtime.zero in
  let v0 = Registers.Value.int 0 and v1 = Registers.Value.int 1 in
  (match kind with
  | `Regular ->
    let w = Registers.Swsr_regular.writer ~net ~client_id:100 ~inst:0 in
    let r = Registers.Swsr_regular.reader ~net ~client_id:101 ~inst:0 in
    ignore
      (Sim.Fiber.spawn ~name:"writer" (fun () ->
           ignore (Registers.Swsr_regular.write w v0);
           write1_start := Sim.Engine.now engine;
           ignore (Registers.Swsr_regular.write w v1);
           write1_end := Sim.Engine.now engine));
    ignore
      (Sim.Fiber.spawn ~name:"reader" (fun () ->
           sleep 10;
           read1_start := Sim.Engine.now engine;
           read1 :=
             Registers.Outcome.to_option (Registers.Swsr_regular.read r);
           read2_start := Sim.Engine.now engine;
           read2 :=
             Registers.Outcome.to_option (Registers.Swsr_regular.read r)))
  | `Atomic ->
    let w = Registers.Swsr_atomic.writer ~net ~client_id:100 ~inst:0 () in
    let r = Registers.Swsr_atomic.reader ~net ~client_id:101 ~inst:0 () in
    ignore
      (Sim.Fiber.spawn ~name:"writer" (fun () ->
           ignore (Registers.Swsr_atomic.write w v0);
           write1_start := Sim.Engine.now engine;
           ignore (Registers.Swsr_atomic.write w v1);
           write1_end := Sim.Engine.now engine));
    ignore
      (Sim.Fiber.spawn ~name:"reader" (fun () ->
           sleep 10;
           read1_start := Sim.Engine.now engine;
           read1 :=
             Registers.Outcome.to_option (Registers.Swsr_atomic.read r);
           read2_start := Sim.Engine.now engine;
           read2 :=
             Registers.Outcome.to_option (Registers.Swsr_atomic.read r))));
  Sim.Engine.run engine;
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
    metrics = Sim.Engine.metrics engine;
  }
