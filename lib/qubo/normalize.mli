(** Hardware-range normalisation (paper Equation 6).

    QA hardware accepts vertex weights [B ∈ [-2, 2]] and edge weights
    [J ∈ [-1, 1]]; the objective is divided by
    [d* = max(max_i |B_i|/2, max_{ij} |J_{ij}|)], which also divides the
    energy gap — the noise-amplification the paper's §IV-C fights. *)

val d_star : Pbq.t -> float
(** The scaling denominator; [1.0] for a function with no terms (so that
    normalising is always safe). *)

val apply : Pbq.t -> Pbq.t
(** Fresh normalised copy: all coefficients divided by {!d_star}. *)

val within_hardware_range : Pbq.t -> bool
(** Checks [B ∈ [-2,2]] and [J ∈ [-1,1]] up to 1e-9. *)
