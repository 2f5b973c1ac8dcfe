(** Energy-distribution calibration (paper §V-A, Fig. 8).

    Random satisfiable and unsatisfiable 3-SAT problems are annealed; a
    Gaussian Naive Bayes model is fitted to the two energy samples and the
    energy axis partitioned into the four confidence intervals the backend
    interprets. *)

type t = {
  model : Stats.Naive_bayes.t;
  partition : Stats.Naive_bayes.partition;
  sat_energies : float array;  (** calibration sample, satisfiable class *)
  unsat_energies : float array;  (** calibration sample, unsatisfiable class *)
}

val simulator_default : t
(** Fitted to this repository's simulated annealer (fig8 bench, default
    noise): the same three-interval structure on a compressed energy scale
    (the SA device with post-processing leaves less residue than 2016-era
    hardware).  This is the hybrid solver's default. *)

val calibrate :
  ?problems:int ->
  ?noise:Anneal.Noise.t ->
  ?adjust:bool ->
  Stats.Rng.t ->
  Chimera.Graph.t ->
  t
(** [calibrate rng graph] collects [problems] (default 60) energy samples
    per class by preparing each random problem's annealer job with
    {!Frontend.prepare} (flat activity; [adjust] as there), annealing it
    once under [noise], and labelling with the {e embedded subset's} true
    satisfiability (decided classically).  The partition cuts sit at 90 %
    confidence.  Calibrating on embedded subsets
    rather than whole problems matches the population the backend classifies
    at run time; Fig. 8's 50–160-clause, 15–40-variable shape is preserved
    through the queue generator. *)
