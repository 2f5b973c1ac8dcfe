(** Energy-distribution calibration (paper §V-A, Fig. 8).

    Random satisfiable and unsatisfiable 3-SAT problems are annealed; a
    Gaussian Naive Bayes model is fitted to the two energy samples and the
    energy axis partitioned into the four confidence intervals the backend
    interprets.  The fit is offline: the solver reads two constant cuts,
    {!Hyqsat.Backend.sat_cut} and {!Hyqsat.Backend.unsat_cut}, and
    [bench fig8] prints them next to the cuts fitted here. *)

type t = {
  model : Naive_bayes.t;
  partition : Naive_bayes.partition;
  sat_energies : float array;  (** calibration sample, satisfiable class *)
  unsat_energies : float array;  (** calibration sample, unsatisfiable class *)
}

val calibrate :
  ?problems:int ->
  ?noise:Anneal.Noise.t ->
  ?adjust:bool ->
  Stats.Rng.t ->
  Chimera.Graph.t ->
  t
(** [calibrate rng graph] collects [problems] (default 60) energy samples
    per class by preparing each random problem's annealer job with
    {!Hyqsat.Frontend.prepare} (flat activity; [adjust] as there), annealing
    it once under [noise], and labelling with the {e embedded subset's} true
    satisfiability (decided classically).  The partition cuts sit at 90 %
    confidence.  Calibrating on embedded subsets
    rather than whole problems matches the population the backend classifies
    at run time; Fig. 8's 50–160-clause, 15–40-variable shape is preserved
    through the queue generator. *)
