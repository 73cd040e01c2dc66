(** Reading JSON: whole files, and typed object fields with an error
    naming the field. *)

val file : string -> (Obs.Json.t, string) result
(** Parse the file at the path; the error names the path. *)

val field : string -> Obs.Json.t -> (Obs.Json.t, string) result

val list : string -> Obs.Json.t -> (Obs.Json.t list, string) result

val obj : string -> Obs.Json.t -> ((string * Obs.Json.t) list, string) result

val string : string -> Obs.Json.t -> (string, string) result

val int : string -> Obs.Json.t -> (int, string) result

val float : string -> Obs.Json.t -> (float, string) result

val bool : string -> Obs.Json.t -> (bool, string) result

val all_ok : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** Map every element, stopping at the first error. *)
