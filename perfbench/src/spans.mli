(** In-memory spans recorded around calls into the library's public
    functions.  Nothing is recorded unless a recorder exists: untraced
    runs pass [None] and pay one match per call. *)

type t

val create : unit -> t

val root : t -> ?op:int -> name:string -> (unit -> 'a) -> 'a
(** A top-level span (a set-up or a round); spans opened while it runs
    take it as their parent. *)

val opt : t option -> ?op:int -> name:string -> (unit -> 'a) -> 'a
(** With a recorder, a span named after the layer call (e.g.
    ["kv.set"]) under the current root; [op] is shared by every span of
    one unit of work.  The function may suspend a fiber: the span ends
    when it returns.  Without a recorder, a plain call. *)

val add : t -> op:int -> name:string -> start:float -> stop:float -> unit
(** A span the caller timed itself (from [Unix.gettimeofday]), under the
    current root: for work that runs inside a library call and is seen
    only through its callbacks. *)

val durations : t -> string list -> float array
(** Durations in seconds of every span carrying one of the names. *)

val write : t -> string -> unit
(** One JSON object per line, in opening order: id, name, op, parent,
    and start and end in microseconds since the first span started. *)
