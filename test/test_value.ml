open Util
open Registers

let test_equal () =
  check_true "bot" (Value.equal Value.bot Value.bot);
  check_true "int" (Value.equal (Value.int 3) (Value.int 3));
  check_false "int neq" (Value.equal (Value.int 3) (Value.int 4));
  check_true "str" (Value.equal (Value.str "a") (Value.str "a"));
  check_false "cross kind" (Value.equal (Value.int 0) Value.bot)

let test_stamped_equal () =
  let e = Epoch.genesis ~k:2 in
  let v1 = Value.stamped ~data:(Value.int 1) ~epoch:e ~seq:5 in
  let v2 = Value.stamped ~data:(Value.int 1) ~epoch:e ~seq:5 in
  let v3 = Value.stamped ~data:(Value.int 1) ~epoch:e ~seq:6 in
  check_true "same triple" (Value.equal v1 v2);
  check_false "different seq" (Value.equal v1 v3)

let test_nested_stamped () =
  let e = Epoch.genesis ~k:2 in
  let inner = Value.stamped ~data:(Value.str "x") ~epoch:e ~seq:0 in
  let outer = Value.stamped ~data:inner ~epoch:e ~seq:1 in
  check_true "nested compares" (Value.equal outer outer)

let test_pp () =
  Alcotest.(check string) "int" "7" (Value.to_string (Value.int 7));
  Alcotest.(check string) "bot" "\xe2\x8a\xa5" (Value.to_string Value.bot);
  Alcotest.(check string) "str" "\"hi\"" (Value.to_string (Value.str "hi"))

(* Model-checker fingerprints embed these renderings, so the bytes are
   pinned: OCaml-escaped strings, negative ints, nested stamps. *)
let test_rendering_bytes () =
  let e = Epoch.genesis ~k:2 in
  let cases =
    [
      (Value.int (-3), "-3");
      (Value.str "a\"b\n\xe2\x8a\xa5\t", "\"a\\\"b\\n\\226\\138\\165\\t\"");
      (Value.stamped ~data:(Value.int 7) ~epoch:e ~seq:4, "<7 @ (1,{2,3})/4>");
      ( Value.stamped
          ~data:(Value.stamped ~data:Value.bot ~epoch:e ~seq:2)
          ~epoch:{ Epoch.s = 4; a = [ 1; 5 ] }
          ~seq:0,
        "<<\xe2\x8a\xa5 @ (1,{2,3})/2> @ (4,{1,5})/0>" );
    ]
  in
  List.iter
    (fun (v, want) ->
      Alcotest.(check string) "to_string" want (Value.to_string v);
      Alcotest.(check string) "pp" want (Format.asprintf "%a" Value.pp v);
      let b = Buffer.create 8 in
      Buffer.add_char b '|';
      Value.add_to_buffer b v;
      Alcotest.(check string) "add_to_buffer appends" ("|" ^ want)
        (Buffer.contents b))
    cases

(* The typed structural order that replaced Stdlib.compare (stablint R2):
   total, antisymmetric, consistent with equal, Bot < Int < Str <
   Stamped, and componentwise within a constructor. *)
let test_compare_total_order () =
  let e = Epoch.genesis ~k:2 in
  let e' = Epoch.next_epoch ~k:2 [ e ] in
  let samples =
    [
      Value.bot;
      Value.int (-3);
      Value.int 7;
      Value.str "a";
      Value.str "b";
      Value.stamped ~data:(Value.int 7) ~epoch:e ~seq:0;
      Value.stamped ~data:(Value.int 7) ~epoch:e ~seq:1;
      Value.stamped ~data:(Value.int 7) ~epoch:e' ~seq:0;
      Value.stamped
        ~data:(Value.stamped ~data:Value.bot ~epoch:e ~seq:2)
        ~epoch:e ~seq:0;
    ]
  in
  List.iter
    (fun v ->
      List.iter
        (fun w ->
          let c = Value.compare v w in
          check_int "antisymmetric" (-c) (Value.compare w v);
          check_bool "consistent with equal" (Value.equal v w) (c = 0))
        samples)
    samples;
  check_true "Bot < Int" (Value.compare Value.bot (Value.int 0) < 0);
  check_true "Int < Str" (Value.compare (Value.int 999) (Value.str "") < 0);
  check_true "Str < Stamped"
    (Value.compare (Value.str "z")
       (Value.stamped ~data:Value.bot ~epoch:e ~seq:0)
     < 0);
  check_true "ints by value" (Value.compare (Value.int 1) (Value.int 2) < 0);
  check_true "seq breaks ties"
    (Value.compare
       (Value.stamped ~data:Value.bot ~epoch:e ~seq:0)
       (Value.stamped ~data:Value.bot ~epoch:e ~seq:1)
     < 0)

let test_compare_sorts_deterministically () =
  let e = Epoch.genesis ~k:2 in
  let l =
    [
      Value.str "b";
      Value.int 2;
      Value.bot;
      Value.stamped ~data:Value.bot ~epoch:e ~seq:0;
      Value.int 1;
      Value.str "a";
    ]
  in
  let sorted = List.sort Value.compare l in
  let resorted = List.sort Value.compare (List.rev l) in
  check_true "sort is order-independent"
    (List.for_all2 Value.equal sorted resorted);
  check_true "bot first"
    (match sorted with v :: _ -> Value.equal v Value.bot | [] -> false)

let test_arbitrary_not_stamped () =
  let rng = Sim.Rng.create 3 in
  for _ = 1 to 50 do
    match Value.arbitrary rng with
    | Value.Stamped _ -> Alcotest.fail "arbitrary produced Stamped"
    | Value.Bot | Value.Int _ | Value.Str _ -> ()
  done

let tests =
  [
    case "equal" test_equal;
    case "stamped equal" test_stamped_equal;
    case "nested stamped" test_nested_stamped;
    case "pretty printing" test_pp;
    case "rendering bytes" test_rendering_bytes;
    case "compare is a typed total order" test_compare_total_order;
    case "compare sorts deterministically" test_compare_sorts_deterministically;
    case "arbitrary shape" test_arbitrary_not_stamped;
  ]
