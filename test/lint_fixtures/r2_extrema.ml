(* Fixture: polymorphic max/min R2 must flag in protocol and hot-path
   libraries, and typed replacements it must leave alone. *)

let clamp d = max d 0

let least a b = Stdlib.min a b

let widest l = List.fold_left max 0 l

type bounds = { max : int; min : int }

let bounds max min = { max; min }

let typed_int a b = Int.max a b

let typed_float (a : float) b = if a >= b then a else b
