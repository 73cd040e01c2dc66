type t = Bot | Int of int | Str of string | Stamped of stamped

and stamped = { data : t; epoch : Epoch.t; seq : int }

let rec equal v1 v2 =
  v1 == v2
  ||
  match (v1, v2) with
  | Bot, Bot -> true
  | Int a, Int b -> a = b
  | Str a, Str b -> String.equal a b
  | Stamped a, Stamped b ->
    a.seq = b.seq && Epoch.equal a.epoch b.epoch && equal a.data b.data
  | (Bot | Int _ | Str _ | Stamped _), _ -> false

(* Total structural order: Bot < Int < Str < Stamped, then componentwise.
   Typed all the way down — no polymorphic compare on protocol values. *)
let rec compare v1 v2 =
  match (v1, v2) with
  | Bot, Bot -> 0
  | Bot, _ -> -1
  | _, Bot -> 1
  | Int a, Int b -> Int.compare a b
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Str a, Str b -> String.compare a b
  | Str _, _ -> -1
  | _, Str _ -> 1
  | Stamped a, Stamped b -> (
    match compare a.data b.data with
    | 0 -> (
      match Epoch.compare_structural a.epoch b.epoch with
      | 0 -> Int.compare a.seq b.seq
      | c -> c)
    | c -> c)

let bot = Bot

let int i = Int i

let str s = Str s

let stamped ~data ~epoch ~seq = Stamped { data; epoch; seq }

let rec wire_bytes = function
  | Bot -> 1
  | Int _ -> 9
  | Str s -> 1 + String.length s
  | Stamped { data; _ } -> 1 + wire_bytes data + 16 + 8

let arbitrary rng =
  if Sim.Rng.bool rng then Int (Sim.Rng.int rng 1_000_000)
  else Str (Printf.sprintf "junk-%d" (Sim.Rng.int rng 1_000_000))

(* [string_of_int]'s bytes without the C formatter's format parsing. *)
let rec add_decimal b i =
  if i < 0 then Buffer.add_string b (string_of_int i)
  else begin
    if i >= 10 then add_decimal b (i / 10);
    Buffer.add_char b (Char.chr (48 + (i mod 10)))
  end

(* Buffer-direct rendering (no Format).  The model checker renders
   values only into the fingerprints artifacts record; its search hashes
   them instead. *)
let rec add_to_buffer b = function
  | Bot -> Buffer.add_string b "\xe2\x8a\xa5" (* ⊥ *)
  | Int i -> add_decimal b i
  | Str s -> Buffer.add_string b ("\"" ^ String.escaped s ^ "\"")
  | Stamped { data; epoch = { s; a }; seq } ->
    Buffer.add_char b '<';
    add_to_buffer b data;
    Buffer.add_string b " @ (";
    add_decimal b s;
    Buffer.add_string b ",{";
    List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; add_decimal b x) a;
    Buffer.add_string b "})/";
    add_decimal b seq;
    Buffer.add_char b '>'

let to_string v =
  let b = Buffer.create 16 in
  add_to_buffer b v;
  Buffer.contents b

let pp ppf v = Format.pp_print_string ppf (to_string v)
