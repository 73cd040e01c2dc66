(** Whole-file input and output for artifacts, reports and traces. *)

val read : string -> string
(** The file's contents, byte for byte. *)

val create : string -> out_channel
(** Open a file for writing (truncating it), creating any missing parent
    directories first. *)

val write : string -> string -> unit
(** [write path s]: replace the file's contents with [s] verbatim, as
    {!create} does; callers supply any trailing newline. *)
