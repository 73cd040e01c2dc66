(** Counting identical values among acknowledgments (reader lines 12/14,
    writer line 03). *)

val find : eq:('a -> 'a -> bool) -> threshold:int -> 'a list -> 'a option
(** [find ~eq ~threshold xs] is the first value (in order of appearance)
    occurring at least [threshold] times in [xs], if any. *)

val find_cell :
  threshold:int -> Messages.cell list -> Messages.cell option
(** [find] specialized to cells (matching both sequence number and value,
    as in Fig. 3; Fig. 2 cells always carry [sn = 0]). *)

val find_help : threshold:int -> Messages.help list -> Messages.cell option
(** The paper's "∃ w ≠ ⊥ such that helping_val = w for [threshold] of the
    messages": only non-[⊥] helping values count. *)

(** {2 Over acknowledgment bodies}

    The same searches over the acknowledgments one collection filed, by
    server slot, without building the lists: each returns what the list
    function returns on the values in slot order. *)

val find_ack_cell :
  threshold:int -> Messages.to_client array -> Messages.cell option
(** {!find_cell} over the [last_val]s of the [Ack_read] bodies; other
    bodies count for nothing. *)

val find_ack_help :
  threshold:int -> Messages.to_client array -> Messages.cell option
(** {!find_help} over the helping values of every body. *)
