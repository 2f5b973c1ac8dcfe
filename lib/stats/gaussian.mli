(** Univariate Gaussian distribution: fitting and log-density. *)

type t = { mu : float; sigma : float }

val fit : float array -> t
(** Maximum-likelihood fit (population variance); a floor of [1e-9] is applied
    to [sigma] so degenerate samples stay usable. *)

val log_pdf : t -> float -> float

val pp : Format.formatter -> t -> unit
