(** Order statistics over benchmark samples. *)

val median : float array -> float
(** Raises [Invalid_argument] on an empty array. *)

val quartiles : float array -> float * float
(** First and third quartile, computed exactly as Python's
    [statistics.quantiles(xs, n=4)] does. *)

val spread : float array -> float
(** Distance between the quartiles as a share of the median; [0] with
    fewer than two samples. *)

val supported : int -> float -> bool
(** [supported n p]: whether [n] samples support the [p]-quantile, that
    is, whether at least 10 samples lie beyond it. *)

val percentile : float array -> float -> float option
(** Nearest-rank [p]-quantile ([0 < p < 1]), or [None] when the samples
    do not support it. *)
