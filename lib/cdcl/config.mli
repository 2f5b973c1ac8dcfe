(** Solver configuration.

    Two presets model the paper's two classical baselines:
    {!minisat_like} (VSIDS + Luby restarts, MiniSAT 2.2 defaults) and
    {!kissat_like} (CHB-style bandit heuristic + EMA-driven restarts, the
    ingredients the paper attributes to KisSAT [14], [40]).  What both
    share is fixed in the engines rather than configured: phase saving,
    learnt-clause database reduction from an initial budget of a third of
    the clause count, and MiniSAT 2.2's activity decays (0.95 for VSIDS,
    0.999 for learnt clauses). *)

type heuristic =
  | Vsids  (** exponential VSIDS with activity decay *)
  | Chb  (** conflict-history-based multi-armed-bandit scores *)

type restart_policy =
  | Luby_restarts of int  (** base conflict interval *)
  | Ema_restarts of { fast : float; slow : float; margin : float }
      (** restart when fast LBD average exceeds [margin] × slow average *)

type t = {
  heuristic : heuristic;
  restart : restart_policy;
  random_polarity_freq : float;  (** probability of a random polarity pick *)
  log_proof : bool;  (** record a DRAT proof ({!Solver.proof}) *)
  track_paper_stats : bool;
      (** maintain the paper instrumentation ({!Solver.clause_activity},
          {!Solver.clause_visits}): per-clause score and visit counters
          bumped on every propagation/conflict visit.  Off by default so the
          propagate/analyze hot paths skip the array writes; the hybrid
          solver and the figure experiments that consume the counters turn
          it on explicitly.  Never affects answers or search behaviour. *)
  garbage_frac : float;
      (** clause-arena compaction threshold: garbage-collect the arena when
          the fraction of dead words (deleted clauses) exceeds this value
          (MiniSAT's default 0.20).  Compaction relocates clause refs and is
          behaviour-invariant; raise it to trade memory for fewer
          relocation passes on long incremental sessions. *)
  seed : int;
}

val minisat_like : t
val kissat_like : t
val default : t
(** [minisat_like]. *)

val with_seed : int -> t -> t
val with_proof_logging : t -> t

val with_paper_stats : t -> t
(** Enable {!field-track_paper_stats}. *)
