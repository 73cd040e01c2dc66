(* Multiple rule ids carried in one pragma — both must suppress,
   leaving only the unsuppressed trailing sites. *)

let both_suppressed xs =
  (Random.int 10 + List.hd xs : int) (* lint: allow R1 R4 -- fixture *)

let r1_site () = Random.bool ()

let r4_site xs = List.hd xs
