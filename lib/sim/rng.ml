(* The 64-bit state lives in 8 bytes rather than a mutable [int64] field:
   reading and writing it through [Bytes.get/set_int64_le] keeps the value
   unboxed, so a draw allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finalizer (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let split t = of_state (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the conversion to OCaml's 63-bit int stays
     non-negative. *)
  let raw = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  raw mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next t) 1L = 1L

(* [raw] has 53 bits, so [Float.of_int] is exact, and scaling by a power
   of two is exact too: the same bits as [raw /. 2^53], with no C call
   and no divide. *)
let float t bound =
  let raw = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  bound *. (Float.of_int raw *. 0x1p-53)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
