(* Randomized end-to-end properties: lightweight model checking.  Each
   case builds a whole deployment from generated parameters (system size,
   Byzantine strategy assignment, workload shape, fault schedule), runs it,
   and feeds the history to the oracles. *)

open Util
open Registers

(* Pick a Byzantine strategy by index (the generator draws small ints). *)
let strategy scn idx server =
  let srv = Byzantine.Adversary.server scn.Harness.Scenario.adversary server in
  match idx mod 5 with
  | 0 -> Byzantine.Behavior.silent
  | 1 -> Byzantine.Behavior.garbage
  | 2 -> Byzantine.Behavior.equivocate
  | 3 -> Byzantine.Behavior.frozen srv
  | _ -> Byzantine.Behavior.flaky ~drop_probability:0.4 srv

let gen_config =
  QCheck.Gen.(
    let* seed = int_range 1 100_000 in
    let* size = int_range 0 1 in
    let n, f = if size = 0 then (9, 1) else (17, 2) in
    let* strategies = list_size (int_range 0 f) (int_range 0 4) in
    let* gap_hi = int_range 0 25 in
    let* writes = int_range 3 15 in
    let* reads = int_range 3 15 in
    return (seed, n, f, strategies, gap_hi, writes, reads))

let print_config (seed, n, f, strategies, gap_hi, writes, reads) =
  Printf.sprintf "seed=%d n=%d f=%d byz=%s gap=%d w=%d r=%d" seed n f
    (String.concat "," (List.map string_of_int strategies))
    gap_hi writes reads

let arb_config = QCheck.make gen_config ~print:print_config

let run_swsr_atomic (seed, n, f, strategies, gap_hi, writes, reads) =
  let params = Params.create_exn ~n ~f ~mode:Params.Async () in
  let scn = Harness.Scenario.create ~seed ~params () in
  List.iteri
    (fun i idx ->
      Byzantine.Adversary.compromise scn.Harness.Scenario.adversary i
        (strategy scn idx i))
    strategies;
  let w = Swsr_atomic.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 () in
  let r = Swsr_atomic.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 () in
  run_fibers scn
    [
      ( "writer",
        fun () ->
          Harness.Workload.writer_job scn ~tally:(Harness.Workload.tally ()) ~write:(Swsr_atomic.write w)
            ~count:writes ~gap:(Harness.Workload.gap 0 gap_hi) () );
      ( "reader",
        fun () ->
          Harness.Workload.reader_job scn ~tally:(Harness.Workload.tally ())
            ~read:(fun () -> Swsr_atomic.read r)
            ~count:reads ~gap:(Harness.Workload.gap 0 gap_hi) () );
    ];
  scn

let run_swsr_atomic_heavy_tail (seed, n, f, strategies, gap_hi, writes, reads) =
  let params = Params.create_exn ~n ~f ~mode:Params.Async () in
  let rng = Sim.Rng.create seed in
  let engine = Sim.Engine.create ~rng:(Sim.Rng.split rng) () in
  let net =
    Net.create ~engine ~params
      ~link_delay:(fun rng ->
        Sim.Link.bimodal rng ~fast:(1, 5) ~slow:(40, 90) ~slow_probability:0.15)
      ()
  in
  let adversary = Byzantine.Adversary.deploy ~net ~rng:(Sim.Rng.split rng) in
  List.iteri
    (fun i idx ->
      let srv = Byzantine.Adversary.server adversary i in
      let b =
        match idx mod 5 with
        | 0 -> Byzantine.Behavior.silent
        | 1 -> Byzantine.Behavior.garbage
        | 2 -> Byzantine.Behavior.equivocate
        | 3 -> Byzantine.Behavior.frozen srv
        | _ -> Byzantine.Behavior.flaky ~drop_probability:0.4 srv
      in
      Byzantine.Adversary.compromise adversary i b)
    strategies;
  let w = Swsr_atomic.writer ~net ~client_id:100 ~inst:0 () in
  let r = Swsr_atomic.reader ~net ~client_id:101 ~inst:0 () in
  let h = Oracles.History.create () in
  let job_rng = Sim.Rng.split rng in
  let sleep d = Sim.Fiber.suspend (fun k -> Sim.Engine.schedule engine ~delay:d k) in
  let wh =
    Sim.Fiber.spawn (fun () ->
        for i = 1 to writes do
          let inv = Sim.Engine.now engine in
          ignore (Swsr_atomic.write w (Value.int i));
          Oracles.History.record h ~proc:"w" ~kind:Oracles.History.Write ~inv
            ~resp:(Sim.Engine.now engine) (Value.int i);
          sleep (Sim.Rng.int_in job_rng 0 gap_hi)
        done)
  in
  let rh =
    Sim.Fiber.spawn (fun () ->
        for _ = 1 to reads do
          let inv = Sim.Engine.now engine in
          (match Outcome.to_option (Swsr_atomic.read r) with
          | Some v ->
            Oracles.History.record h ~proc:"r" ~kind:Oracles.History.Read ~inv
              ~resp:(Sim.Engine.now engine) v
          | None -> ());
          sleep (Sim.Rng.int_in job_rng 0 gap_hi)
        done)
  in
  Sim.Engine.run engine;
  (match (Sim.Fiber.status wh, Sim.Fiber.status rh) with
  | Sim.Fiber.Done, Sim.Fiber.Done -> ()
  | _ -> failwith "fiber wedged under heavy-tailed delays");
  h

let prop_swsr_atomic_heavy_tail =
  QCheck.Test.make
    ~name:"SWSR atomic register is atomic under heavy-tailed delays"
    ~count:60 arb_config (fun cfg ->
      let gap_hi = max 1 (let _, _, _, _, g, _, _ = cfg in g) in
      let seed, n, f, strategies, _, writes, reads = cfg in
      let h =
        run_swsr_atomic_heavy_tail (seed, n, f, strategies, gap_hi, writes, reads)
      in
      match Oracles.Stabilization.cutoff_from h ~lo:0 with
      | None -> true
      | Some cutoff ->
        Oracles.Atomicity.Sw.is_clean (Oracles.Atomicity.Sw.check ~cutoff h))

let prop_swsr_atomic_always_atomic =
  QCheck.Test.make ~name:"SWSR atomic register is atomic for any adversary mix"
    ~count:120 arb_config (fun cfg ->
      let h = (run_swsr_atomic cfg).Harness.Scenario.history in
      match Oracles.Stabilization.cutoff_from h ~lo:0 with
      | None -> true
      | Some cutoff ->
        Oracles.Atomicity.Sw.is_clean (Oracles.Atomicity.Sw.check ~cutoff h))

let prop_swsr_stabilizes_after_random_fault =
  QCheck.Test.make
    ~name:"SWSR regular register stabilizes after a random-time fault"
    ~count:80
    QCheck.(pair arb_config (QCheck.make QCheck.Gen.(int_range 100 900)))
    (fun ((seed, n, f, strategies, gap_hi, writes, reads), fault_at) ->
      let params = Params.create_exn ~n ~f ~mode:Params.Async () in
      let scn = Harness.Scenario.create ~seed ~params () in
      List.iteri
        (fun i idx ->
          Byzantine.Adversary.compromise scn.Harness.Scenario.adversary i
            (strategy scn idx i))
        strategies;
      Sim.Fault.schedule scn.Harness.Scenario.fault
        ~engine:scn.Harness.Scenario.engine
        ~at:(Sim.Vtime.of_int fault_at) ~prefix:"server.";
      let w = Swsr_regular.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
      let r = Swsr_regular.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
      run_fibers scn
        [
          ( "writer",
            fun () ->
              Harness.Workload.writer_job scn ~tally:(Harness.Workload.tally ()) ~write:(Swsr_regular.write w)
                ~count:(writes + 20)
                ~gap:(Harness.Workload.gap 0 gap_hi)
                () );
          ( "reader",
            fun () ->
              (* A bounded inquiry budget: if the fault lands after the
                 writer's last write, the paper's assumption (b) (a write
                 after tau_no_tr) is unmet and unbounded reads could
                 legitimately retry forever. *)
              Harness.Workload.reader_job scn ~tally:(Harness.Workload.tally ())
                ~read:(fun () -> Swsr_regular.read ~max_iterations:80 r)
                ~count:(reads + 20)
                ~gap:(Harness.Workload.gap 0 gap_hi)
                () );
        ];
      (* Reads invoked after the first write completed after the fault
         must be regular.  Reads that exhausted their budget with no
         post-fault write pending are not liveness failures of the
         algorithm, so only the regular-condition violations count when
         budget exhaustion happened before that write. *)
      let h = scn.Harness.Scenario.history in
      match Oracles.Stabilization.cutoff_from h ~lo:fault_at with
      | None -> true (* workload ended before the fault: nothing to check *)
      | Some cutoff ->
        Oracles.Regularity.is_clean (Oracles.Regularity.check ~cutoff h))

let prop_mwmr_atomic =
  QCheck.Test.make ~name:"MWMR register is atomic for any adversary mix"
    ~count:60
    (QCheck.make
       QCheck.Gen.(
         let* seed = int_range 1 100_000 in
         let* byz = int_range 0 4 in
         let* gap_hi = int_range 10 50 in
         return (seed, byz, gap_hi))
       ~print:(fun (s, b, g) -> Printf.sprintf "seed=%d byz=%d gap=%d" s b g))
    (fun (seed, byz, gap_hi) ->
      let params = Params.create_exn ~n:9 ~f:1 ~mode:Params.Async () in
      let scn = Harness.Scenario.create ~seed ~params () in
      Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0
        (strategy scn byz 0);
      let cfg = Mwmr.default_config ~m:3 in
      let procs =
        Array.init 3 (fun i ->
            Mwmr.process ~net:scn.Harness.Scenario.net ~cfg ~id:i
              ~client_id:(300 + i))
      in
      run_fibers scn
        (Array.to_list
           (Array.mapi
              (fun i p ->
                ( Printf.sprintf "p%d" i,
                  fun () ->
                    Harness.Workload.mwmr_job scn ~tally:(Harness.Workload.tally ())
                      ~proc:(Printf.sprintf "p%d" i)
                      ~process:p ~ops:6 ~write_ratio:0.5
                      ~gap:(Harness.Workload.gap 0 gap_hi) () ))
              procs));
      Oracles.Atomicity.Mw.is_clean
        (Oracles.Atomicity.Mw.check ~tie:cfg.Mwmr.tie
           scn.Harness.Scenario.history))

let prop_transport_exactly_once =
  QCheck.Test.make
    ~name:"ss-transport delivers exactly once, in order, for any loss/dup"
    ~count:120
    (QCheck.make
       QCheck.Gen.(
         let* seed = int_range 1 100_000 in
         let* loss10 = int_range 0 6 in
         let* dup10 = int_range 0 4 in
         let* count = int_range 1 40 in
         return (seed, float_of_int loss10 /. 10., float_of_int dup10 /. 10., count))
       ~print:(fun (s, l, d, c) ->
         Printf.sprintf "seed=%d loss=%.1f dup=%.1f count=%d" s l d c))
    (fun (seed, loss, dup, count) ->
      let rng = Sim.Rng.create seed in
      let engine = Sim.Engine.create ~rng () in
      let received = ref [] in
      let tr =
        Ss_transport.create ~engine ~rng:(Sim.Rng.split rng)
          ~delay:(Sim.Link.uniform (Sim.Rng.split rng) ~lo:1 ~hi:10)
          ~loss ~dup ~name:"p"
          ~deliver:(fun m -> received := m :: !received)
          ()
      in
      for i = 1 to count do
        Ss_transport.send tr i
      done;
      Sim.Engine.run engine;
      List.rev !received = List.init count (fun i -> i + 1))

let prop_altbit_in_order =
  (* Self-stabilization contract, not perfection: the footnote-3 handshake
     counts returning packets, so stale acknowledgments planted by the
     scramble (or spawned by duplication) can complete a bounded number of
     early handshakes without a delivery.  The delivered sent-messages must
     be an in-order subsequence, losses bounded by the garbage planted plus
     a small constant, and once stabilized (the last few messages) nothing
     may be lost. *)
  QCheck.Test.make
    ~name:"alt-bit: in-order subsequence, bounded loss after scramble"
    ~count:120
    (QCheck.make
       QCheck.Gen.(
         let* seed = int_range 1 100_000 in
         let* garbage = int_range 0 4 in
         let* count = int_range 4 12 in
         return (seed, garbage, count))
       ~print:(fun (s, g, c) -> Printf.sprintf "seed=%d garbage=%d count=%d" s g c))
    (fun (seed, garbage, count) ->
      let s =
        Datalink.Alt_bit.create ~rng:(Sim.Rng.create seed) ~cap:4 ~loss:0.2
          ~dup:0.1 ()
      in
      Datalink.Alt_bit.scramble s
        ~garbage:(List.init garbage (fun i -> -(i + 1)));
      let sent = List.init count (fun i -> i + 1) in
      List.for_all
        (fun m ->
          match Datalink.Alt_bit.send s m with Ok () -> true | Error _ -> false)
        sent
      &&
      let delivered =
        List.filter (fun m -> m > 0) (Datalink.Alt_bit.delivered s)
      in
      let firsts =
        List.fold_left
          (fun acc m -> if List.mem m acc then acc else acc @ [ m ])
          [] delivered
      in
      let is_subsequence sub full =
        let rec scan sub full =
          match (sub, full) with
          | [], _ -> true
          | _, [] -> false
          | x :: sub', y :: full' ->
            if x = y then scan sub' full' else scan sub full'
        in
        scan sub full
      in
      is_subsequence firsts sent
      && count - List.length firsts <= garbage + 2
      && (* stabilized suffix: the last two messages always arrive *)
      List.mem count firsts
      && List.mem (count - 1) firsts)

let prop_starvation_matches_closed_form =
  QCheck.Test.make
    ~name:"scripted starvation matches its closed-form prediction" ~count:40
    (QCheck.make
       QCheck.Gen.(
         let* f = int_range 1 2 in
         let* n = int_range ((2 * f) + 1) (9 * f) in
         return (n, f))
       ~print:(fun (n, f) -> Printf.sprintf "n=%d f=%d" n f))
    (fun (n, f) ->
      let o = Harness.Starvation.run ~n ~f () in
      o.Harness.Starvation.starved
      = Harness.Starvation.predicted_starvation ~n ~f ~sync:false)

let tests =
  [
    qcheck prop_swsr_atomic_always_atomic;
    qcheck prop_swsr_atomic_heavy_tail;
    qcheck prop_swsr_stabilizes_after_random_fault;
    qcheck prop_mwmr_atomic;
    qcheck prop_transport_exactly_once;
    qcheck prop_altbit_in_order;
    qcheck prop_starvation_matches_closed_form;
  ]
