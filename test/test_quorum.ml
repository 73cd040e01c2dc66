open Util
open Registers

let cell sn v = { Messages.sn; v = Value.int v }

let test_find_basic () =
  let xs = [ 1; 2; 2; 3; 2 ] in
  check_true "finds majority" (Quorum.find ~eq:Int.equal ~threshold:3 xs = Some 2);
  check_true "threshold unmet" (Quorum.find ~eq:Int.equal ~threshold:4 xs = None);
  check_true "empty" (Quorum.find ~eq:Int.equal ~threshold:1 [] = None)

let test_find_first_by_appearance () =
  let xs = [ 5; 7; 7; 5 ] in
  check_true "first qualifying value wins"
    (Quorum.find ~eq:Int.equal ~threshold:2 xs = Some 5)

let test_find_threshold_validation () =
  Alcotest.check_raises "zero threshold"
    (Invalid_argument "Quorum.find: threshold must be positive") (fun () ->
      ignore (Quorum.find ~eq:Int.equal ~threshold:0 [ 1 ]))

let test_find_cell () =
  let xs = [ cell 1 10; cell 1 10; cell 2 10 ] in
  check_true "sn participates in equality"
    (Quorum.find_cell ~threshold:2 xs = Some (cell 1 10));
  check_true "sn mismatch breaks quorum"
    (Quorum.find_cell ~threshold:3 xs = None)

let test_find_help_ignores_bot () =
  let h = Some (cell 1 7) in
  check_true "bots don't count"
    (Quorum.find_help ~threshold:2 [ None; h; None; h; None ] = Some (cell 1 7));
  check_true "only bots -> none"
    (Quorum.find_help ~threshold:1 [ None; None ] = None)

let prop_find_counts =
  QCheck.Test.make ~name:"find agrees with naive counting" ~count:300
    QCheck.(pair (list (int_bound 5)) (int_range 1 4))
    (fun (xs, threshold) ->
      let naive =
        List.exists
          (fun x -> List.length (List.filter (Int.equal x) xs) >= threshold)
          xs
      in
      let found = Quorum.find ~eq:Int.equal ~threshold xs <> None in
      naive = found)

(* The slot-array kernels against the list functions they replace: up to
   9 slots holding acknowledgments with duplicate cells and ⊥ helps,
   empty slots among them, and thresholds 1-10. *)
let prop_ack_kernels_match_lists =
  let slot =
    QCheck.Gen.(
      let c = map2 cell (int_bound 2) (int_bound 2) in
      let h = option c in
      frequency
        [
          (1, return Collect.no_answer);
          (3, map2 (fun c h -> Messages.Ack_read (c, h)) c h);
          (1, map (fun h -> Messages.Ack_write h) h);
        ])
  in
  let show_cell (c : Messages.cell) =
    Printf.sprintf "%d:%s" c.sn (Value.to_string c.v)
  in
  let show_body = function
    | b when b == Collect.no_answer -> "-"
    | Messages.Ack_read (c, h) ->
      Printf.sprintf "R(%s,%s)" (show_cell c)
        (Option.fold ~none:"_" ~some:show_cell h)
    | Messages.Ack_write h ->
      Printf.sprintf "W(%s)" (Option.fold ~none:"_" ~some:show_cell h)
  in
  let print (acks, threshold) =
    Printf.sprintf "threshold %d: [%s]" threshold
      (String.concat "; " (List.map show_body (Array.to_list acks)))
  in
  QCheck.Test.make ~name:"slot kernels agree with the list functions"
    ~count:2000
    (QCheck.make ~print
       QCheck.Gen.(pair (array_size (int_bound 9) slot) (int_range 1 10)))
    (fun (acks, threshold) ->
      let bodies = List.filter (fun b -> b != Collect.no_answer) (Array.to_list acks) in
      let cells =
        List.filter_map
          (function Messages.Ack_read (c, _) -> Some c | Messages.Ack_write _ -> None)
          bodies
      in
      let helps =
        List.map
          (function Messages.Ack_read (_, h) | Messages.Ack_write h -> h)
          bodies
      in
      let same a b =
        match (a, b) with
        | Some x, Some y -> x == y
        | None, None -> true
        | Some _, None | None, Some _ -> false
      in
      same
        (Quorum.find_ack_cell ~threshold acks)
        (Quorum.find_cell ~threshold cells)
      && same
           (Quorum.find_ack_help ~threshold acks)
           (Quorum.find_help ~threshold helps))

let tests =
  [
    case "find basic" test_find_basic;
    case "first by appearance" test_find_first_by_appearance;
    case "threshold validation" test_find_threshold_validation;
    case "find_cell" test_find_cell;
    case "find_help ignores bot" test_find_help_ignores_bot;
    qcheck prop_find_counts;
    qcheck prop_ack_kernels_match_lists;
  ]
