(** The search flight recorder: a [stabreg/mc-profile/v1] timeline of
    periodic engine snapshots (states/sec, frontier depth, pruning hits,
    per-domain utilization, ...).

    Sampling cadence is keyed on a deterministic progress counter (model
    checker states, chaos trials) — never on wall time — so which
    samples exist is byte-stable across runs.  Each sample does carry an
    [elapsed_s] wall-clock field for throughput computation, but the
    clock is {e injected}: library code defaults to a constant-zero
    clock, and only the drivers in [bin/] (outside the determinism lint
    scope) pass a real one.  Replay comparisons must therefore ignore
    [elapsed_s] — or simply run with the default clock. *)

type t

val schema_version : string

val create : ?every:int -> ?clock:(unit -> float) -> kind:string -> unit -> t
(** [every] (default 1000, in ticks of the progress counter) is the
    minimum tick distance between samples; [kind] tags the producing
    engine (["mc"], ["chaos"]).  Raises [Invalid_argument] when [every]
    is not positive. *)

val branch : t -> t
(** A fresh recorder with the same kind/cadence/clock and no samples —
    one per frontier worker, since a recorder must not be shared across
    domains.  Merge the branches back with {!add_section}. *)

val due : t -> tick:int -> bool
(** Would a {!sample} at [tick] record? *)

val sample : ?force:bool -> t -> tick:int -> (unit -> (string * Json.t) list) -> unit
(** Record a snapshot if [tick] has advanced at least [every] ticks past
    the previous sample (the first call always records; [force] skips
    the cadence check, for a final snapshot at shutdown).  The field
    thunk is only evaluated when the sample records. *)

val add_section : t -> string -> Json.t -> unit
(** Attach a named top-level section (e.g. ["domains"]: per-slice
    summaries of a parallel search). *)

val samples : t -> int

val sample_jsons : t -> Json.t list
(** The recorded samples, oldest first (for merging slice recorders). *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Decode a timeline; the recorder it gives has the constant-zero
    clock. *)
