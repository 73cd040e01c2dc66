(* A shared scoreboard with a deliberately tiny timestamp space.

     dune exec examples/scoreboard.exe

   Four players post scores through the MWMR register configured with a
   sequence bound of 8, so the bounded-epoch machinery of §5.2 visibly
   opens new epochs as the space exhausts — the situation the paper's
   2^64 bound pushes beyond any system lifetime, scaled down to watch it
   work. *)

open Registers

let () =
  let params = Params.create_exn ~n:9 ~f:1 ~mode:Params.Async () in
  let scn = Harness.Scenario.create ~seed:3 ~params () in
  let m = 4 in
  let cfg = { (Mwmr.default_config ~m) with seq_bound = 8 } in
  let players =
    Array.init m (fun i ->
        Mwmr.process ~net:scn.Harness.Scenario.net ~cfg ~id:i
          ~client_id:(20 + i))
  in
  (* One sequential referee fiber drives all posts, so the epoch structure
     always settles between operations (Lemma 16's precondition). *)
  let blips = ref 0 in
  ignore
    (Sim.Fiber.spawn ~name:"game" (fun () ->
         let rng = Harness.Scenario.split_rng scn in
         for round = 1 to 24 do
           let p = Sim.Rng.int rng m in
           let score = 100 + Sim.Rng.int rng 900 in
           let entry = Printf.sprintf "player%d:%d" p score in
           (match Mwmr.write players.(p) (Value.str entry) with
           | Outcome.Ok () -> ()
           | Outcome.Degraded _ | Outcome.Timed_out _ -> assert false);
           (match Mwmr.read players.((p + 1) mod m) with
           | Outcome.Ok v ->
             let shown = Value.to_string v in
             let fresh = Value.equal v (Value.str entry) in
             if not fresh then incr blips;
             Printf.printf "round %-2d  posted %-14s  board shows %-16s%s\n"
               round entry shown
               (if fresh then ""
                else " <- epoch-boundary blip (Fig 4, line 11)")
           | Outcome.Degraded _ | Outcome.Timed_out _ -> assert false);
           Harness.Scenario.sleep scn 30
         done));
  Harness.Scenario.run scn;
  let epochs =
    Array.fold_left (fun acc p -> acc + Mwmr.epochs_opened p) 0 players
  in
  Printf.printf
    "\n24 posts with sequence bound 8: %d fresh epochs were opened\n\
     (next_epoch of §5.2).  A read that lands exactly on an exhausted\n\
     sequence space restamps the reader's own last entry (the paper's\n\
     line 11) — %d such blips above; with the real 2^64 bound the first\n\
     one would take longer than the system's lifetime to appear.\n"
    epochs !blips
