(* A suppression that matches nothing must surface as a SUPPRESS
   warning, not vanish silently. *)

let clean x = x + 1 (* lint: allow R1 -- nothing to suppress *)

let real_site () = Random.bool ()
