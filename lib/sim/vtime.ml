type t = int

type span = int

let zero = 0

let of_int ticks =
  if ticks < 0 then invalid_arg "Vtime.of_int: negative time";
  ticks

let to_int t = t

let add t d = t + d

let diff later earlier = later - earlier

let compare = Int.compare

let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b

let ( < ) (a : t) (b : t) = Stdlib.( < ) a b

let max (a : t) (b : t) = if a >= b then a else b

let pp ppf t = Format.fprintf ppf "t=%d" t
