open Util
open Registers

let env ?(round = 1) ?(client = 0) ?(inst = 0) body =
  { Messages.round; client; inst; body; span = Obs.Trace_ctx.none }

let cell sn v = { Messages.sn; v = Value.int v }

(* The acknowledgment [Server.handle] passes to its [ack], if any. *)
let handle srv env =
  let got = ref None in
  Server.handle srv env ~ack:(fun _ body -> got := Some body);
  !got

let test_write_updates_and_acks () =
  let srv = Server.create ~id:0 in
  match handle srv (env (Messages.Write (cell 1 42))) with
  | Some (Messages.Ack_write h) ->
    check_true "fresh helping is bot" (h = None);
    let i = Server.instance srv 0 in
    check_true "last_val stored" (Messages.cell_equal i.Server.last_val (cell 1 42))
  | Some (Messages.Ack_read _) | None -> Alcotest.fail "expected Ack_write"

let test_new_help_silent () =
  let srv = Server.create ~id:0 in
  check_true "no ack for NEW_HELP_VAL"
    (handle srv (env (Messages.New_help (cell 2 7))) = None);
  let i = Server.instance srv 0 in
  check_true "helping stored"
    (Messages.help_equal i.Server.helping (Some (cell 2 7)))

let test_read_resets_helping_when_new () =
  let srv = Server.create ~id:0 in
  ignore (handle srv (env (Messages.New_help (cell 2 7))));
  (* READ(false) leaves helping alone. *)
  (match handle srv (env (Messages.Read false)) with
  | Some (Messages.Ack_read (_, h)) ->
    check_true "helping survives" (Messages.help_equal h (Some (cell 2 7)))
  | Some (Messages.Ack_write _) | None -> Alcotest.fail "expected Ack_read");
  (* READ(true) resets it — line 22. *)
  match handle srv (env (Messages.Read true)) with
  | Some (Messages.Ack_read (_, h)) -> check_true "helping reset" (h = None)
  | Some (Messages.Ack_write _) | None -> Alcotest.fail "expected Ack_read"

let test_ack_write_carries_helping () =
  let srv = Server.create ~id:0 in
  ignore (handle srv (env (Messages.New_help (cell 3 9))));
  match handle srv (env (Messages.Write (cell 4 10))) with
  | Some (Messages.Ack_write h) ->
    check_true "current helping returned"
      (Messages.help_equal h (Some (cell 3 9)))
  | Some (Messages.Ack_read _) | None -> Alcotest.fail "expected Ack_write"

let test_instances_isolated () =
  let srv = Server.create ~id:0 in
  ignore (handle srv (env ~inst:0 (Messages.Write (cell 1 1))));
  ignore (handle srv (env ~inst:5 (Messages.Write (cell 9 9))));
  let i0 = Server.instance srv 0 and i5 = Server.instance srv 5 in
  check_true "inst 0" (Messages.cell_equal i0.Server.last_val (cell 1 1));
  check_true "inst 5" (Messages.cell_equal i5.Server.last_val (cell 9 9));
  check_int "two instances" 2 (List.length (Server.instances srv))

let test_unwritten_instance_is_bot () =
  let srv = Server.create ~id:3 in
  let i = Server.instance srv 0 in
  check_true "bot cell" (Messages.cell_equal i.Server.last_val Messages.bot_cell);
  check_true "bot helping" (i.Server.helping = None);
  check_int "id" 3 (Server.id srv)

let test_corrupt_changes_state () =
  let srv = Server.create ~id:0 in
  ignore (handle srv (env (Messages.Write (cell 1 42))));
  let rng = Sim.Rng.create 99 in
  Server.corrupt srv rng;
  let i = Server.instance srv 0 in
  check_false "state scrambled"
    (Messages.cell_equal i.Server.last_val (cell 1 42))

(* Corruption draws rng values in sorted-instance order (stablint R1):
   the resulting state must not depend on the hash-table insertion
   order of the instances. *)
let test_corrupt_insertion_order_independent () =
  let build order =
    let srv = Server.create ~id:0 in
    List.iter (fun inst -> ignore (Server.instance srv inst)) order;
    Server.corrupt srv (Sim.Rng.create 1234);
    Server.instances srv
  in
  let a = build [ 0; 1; 2; 3; 4 ] in
  let b = build [ 3; 0; 4; 2; 1 ] in
  check_int "same instance count" (List.length a) (List.length b);
  List.iter2
    (fun (ka, ia) (kb, ib) ->
      check_int "same key" ka kb;
      check_true "same corrupted cell"
        (Messages.cell_equal ia.Server.last_val ib.Server.last_val);
      check_true "same corrupted help"
        (Messages.help_equal ia.Server.helping ib.Server.helping))
    a b

let tests =
  [
    case "corrupt is insertion-order independent"
      test_corrupt_insertion_order_independent;
    case "write updates and acks (lines 19-20)" test_write_updates_and_acks;
    case "new_help silent (line 21)" test_new_help_silent;
    case "read resets helping (lines 22-23)" test_read_resets_helping_when_new;
    case "ack_write carries helping" test_ack_write_carries_helping;
    case "instances isolated" test_instances_isolated;
    case "unwritten is bot" test_unwritten_instance_is_bot;
    case "corruption" test_corrupt_changes_state;
  ]
