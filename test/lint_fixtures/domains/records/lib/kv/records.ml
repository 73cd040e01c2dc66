(* Record literals in the mutable-state inventory: a literal is a
   mutable allocation only when a record type holding all its labels has
   a mutable field. *)

type config = { writes : int; reads : int; seed : int }

(* Shaped like [Harness.Workload.tally]. *)
type tally = { mutable writes : int; mutable reads : int }

(* Shares [writes] and [reads] with [tally], but only [config] holds all
   three labels, and it is immutable. *)
let config = { writes = 3; reads = 2; seed = 1 }

(* Both types hold [writes] and [reads]; [tally]'s are mutable, so this
   literal counts. *)
let tally = { writes = 0; reads = 0 }
