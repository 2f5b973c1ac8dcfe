(** Two-class Gaussian Naive Bayes over a scalar feature.

    The HyQSAT backend (paper §V-A, Fig 8) fits one Gaussian to the annealer
    energy of satisfiable problems and one to unsatisfiable problems, then
    partitions the energy axis into confidence intervals at a 90 % posterior
    factor. *)

type t = {
  sat : Gaussian.t;      (** energy distribution of satisfiable problems *)
  unsat : Gaussian.t;    (** energy distribution of unsatisfiable problems *)
  prior_sat : float;     (** P(satisfiable) *)
}

val fit : sat:float array -> unsat:float array -> t
(** Fit from labelled energy samples; the prior is the empirical class
    frequency.  Both arrays must be non-empty. *)

val posterior_sat : t -> float -> float
(** [posterior_sat m e] is P(satisfiable | energy = e). *)

val predict : t -> float -> [ `Sat | `Unsat ]
(** Maximum a-posteriori class. *)

val accuracy : t -> sat:float array -> unsat:float array -> float
(** Fraction of labelled samples classified correctly. *)

type partition = {
  sat_cut : float;
      (** below (or at) this energy, P(sat|e) ≥ confidence: "near satisfiable" *)
  unsat_cut : float;
      (** above this energy, P(unsat|e) ≥ confidence: "near unsatisfiable" *)
}

val partition : ?confidence:float -> t -> partition
(** [partition m] computes the paper's confidence-interval cut points (default
    confidence [0.9]).  Energies in [(sat_cut, unsat_cut]] are "uncertain".
    If the classes are so well separated that the posterior never dips below
    the confidence on one side, the cut degenerates to the crossing point. *)

type interval = Satisfiable | Near_satisfiable | Uncertain | Near_unsatisfiable

val classify : partition -> float -> interval
(** The paper's four intervals: energy 0 ⇒ [Satisfiable];
    (0, sat_cut] ⇒ [Near_satisfiable]; (sat_cut, unsat_cut] ⇒ [Uncertain];
    above ⇒ [Near_unsatisfiable]. *)
