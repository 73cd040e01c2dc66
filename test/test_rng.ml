open Util

let test_determinism () =
  let a = Sim.Rng.create 123 and b = Sim.Rng.create 123 in
  for _ = 1 to 100 do
    check_int "same stream" (Sim.Rng.int a 1_000_000) (Sim.Rng.int b 1_000_000)
  done

let test_seed_sensitivity () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  let da = List.init 16 (fun _ -> Sim.Rng.int a 1_000_000) in
  let db = List.init 16 (fun _ -> Sim.Rng.int b 1_000_000) in
  check_true "different seeds differ" (da <> db)

let test_split_independence () =
  let root = Sim.Rng.create 9 in
  let child = Sim.Rng.split root in
  let child_draws = List.init 8 (fun _ -> Sim.Rng.int child 1000) in
  (* Drawing more from the root must not disturb the child replay. *)
  let root2 = Sim.Rng.create 9 in
  let child2 = Sim.Rng.split root2 in
  ignore (Sim.Rng.int root2 1000);
  let child2_draws = List.init 8 (fun _ -> Sim.Rng.int child2 1000) in
  check_true "split streams replay" (child_draws = child2_draws)

let test_int_bounds () =
  let rng = Sim.Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Sim.Rng.int rng 7 in
    check_true "in [0,7)" (x >= 0 && x < 7)
  done;
  Alcotest.check_raises "zero bound rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Sim.Rng.int rng 0))

let test_int_in () =
  let rng = Sim.Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Sim.Rng.int_in rng 3 5 in
    check_true "in [3,5]" (x >= 3 && x <= 5)
  done;
  (* Degenerate single-point range. *)
  check_int "point range" 4 (Sim.Rng.int_in rng 4 4)

let test_float_bounds () =
  let rng = Sim.Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Sim.Rng.float rng 1.0 in
    check_true "in [0,1)" (x >= 0.0 && x < 1.0)
  done

(* The bits of the first 10^4 [float] draws, pinned per seed and bound:
   a change of how a draw becomes a float must keep every bit. *)
let test_float_draws_pinned () =
  List.iter
    (fun (seed, bound, digest) ->
      let rng = Sim.Rng.create seed in
      let b = Buffer.create (10_000 * 17) in
      for _ = 1 to 10_000 do
        Printf.bprintf b "%Lx " (Int64.bits_of_float (Sim.Rng.float rng bound))
      done;
      Alcotest.(check string)
        (Printf.sprintf "seed %d, bound %g" seed bound)
        digest
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    [
      (1, 1.0, "f5f74dfc3ec6f91214038ea4e370f7c5");
      (2, 1.0, "69d6b6f177c796542e9665a0c7865056");
      (3, 1.0, "23a5fa60cda455c57e48e3eaf3995669");
      (1, 37.5, "407fdb17eb296bdab5f67c5004c5b0e3");
      (2, 37.5, "415b832c5a6e84c31b6ca5686ec29121");
      (3, 37.5, "6b112ab32ca42e990d96bcea56fd9415");
    ]

let test_bool_mixes () =
  let rng = Sim.Rng.create 5 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Sim.Rng.bool rng then incr trues
  done;
  check_true "roughly balanced" (!trues > 400 && !trues < 600)

let test_pick () =
  let rng = Sim.Rng.create 5 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    check_true "picked element" (Array.mem (Sim.Rng.pick rng arr) arr)
  done

let test_shuffle_permutation () =
  let rng = Sim.Rng.create 5 in
  let arr = Array.init 20 (fun i -> i) in
  Sim.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  check_true "is permutation" (sorted = Array.init 20 (fun i -> i));
  check_true "actually shuffled" (arr <> Array.init 20 (fun i -> i))

let tests =
  [
    case "determinism" test_determinism;
    case "seed sensitivity" test_seed_sensitivity;
    case "split independence" test_split_independence;
    case "int bounds" test_int_bounds;
    case "int_in bounds" test_int_in;
    case "float bounds" test_float_bounds;
    case "float draws pinned" test_float_draws_pinned;
    case "bool mixes" test_bool_mixes;
    case "pick membership" test_pick;
    case "shuffle permutation" test_shuffle_permutation;
  ]
