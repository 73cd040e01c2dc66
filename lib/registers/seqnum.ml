type t = int

let default_modulus = (1 lsl 61) + 1

let validate_modulus m =
  if m < 3 || m mod 2 = 0 then
    invalid_arg "Seqnum: modulus must be odd and >= 3"

let zero = 0

let norm ~modulus x =
  let r = x mod modulus in
  if r < 0 then r + modulus else r

let succ ~modulus x = norm ~modulus (x + 1)

(* Clockwise distance from [y] to [x]: how many increments take y to x. *)
let cd ~modulus ~from:y ~to_:x = norm ~modulus (x - y)

let ge_cd ~modulus x y =
  x = y || cd ~modulus ~from:y ~to_:x < cd ~modulus ~from:x ~to_:y

let gt_cd ~modulus x y = x <> y && ge_cd ~modulus x y
