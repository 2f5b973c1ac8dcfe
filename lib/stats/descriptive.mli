(** Descriptive statistics over float arrays.

    All functions raise [Invalid_argument] on empty input unless noted. *)

val mean : float array -> float
val variance : float array -> float
(** Population variance (divides by [n]). *)

val std : float array -> float
val geomean : float array -> float
(** Geometric mean; requires strictly positive entries. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0,100], linear interpolation. *)

val min : float array -> float
val max : float array -> float
val sum : float array -> float

val correlation : float array -> float array -> float
(** Pearson correlation of two same-length arrays. *)

type histogram = { lo : float; hi : float; counts : int array }

val histogram : bins:int -> float array -> histogram
(** Equal-width histogram over the data's own range. *)

val pp_histogram : Format.formatter -> histogram -> unit
(** ASCII rendering, one bar line per bin. *)
