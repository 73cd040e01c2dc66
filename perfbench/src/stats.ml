let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles(xs, n=4)] with its default "exclusive"
   method, so that spreads computed here and by external tooling agree to
   the last digit. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

let spread xs =
  if Array.length xs < 2 then 0.0
  else
    let q1, q3 = quartiles xs in
    let m = median xs in
    if m = 0.0 then if q3 = q1 then 0.0 else infinity
    else (q3 -. q1) /. Float.abs m

let min_beyond = 10

let rank n p =
  (* 1-based nearest rank; the epsilon keeps 0.99 * 1000 from rounding up
     to rank 991. *)
  max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let supported n p = n > 0 && n - rank n p >= min_beyond

let percentile xs p =
  let n = Array.length xs in
  if supported n p then Some (sorted xs).(rank n p - 1) else None
