(** A fixed piece of work, timed beside the program so that the
    benchmark's timings can be scaled to one machine speed.

    The benchmark runs on shared hosts whose speed moves by tens of
    percent from one process to the next and from minute to minute.  The
    reference is ordinary OCaml work of the kinds the program does:
    hashing, sorting and a balanced-tree map within the caches, then
    fresh allocation and a walk over a few megabytes.  It lives in the
    benchmark, so no change to the program changes it.  Timed next to a
    measurement, it slows down when the host does; a time multiplied by
    [scale] is then the time on a machine that runs the reference in
    [nominal_s]. *)

val work : unit -> int
(** The reference work; its result only keeps it from being optimized
    away. *)

val time : unit -> float
(** Wall seconds of one [work ()]. *)

val nominal_s : float
(** 15 ms: the reference's time on the machine the timings are scaled
    to, about its time on a 2-vCPU Intel Xeon VM at rest. *)

val scale : reference_s:float -> float
(** [nominal_s /. reference_s]: the factor from a wall time measured
    while the reference took [reference_s] to a time on the nominal
    machine. *)
