(** Weighted MaxSAT optimisation — the unified surface replacing the old
    [Maxsat] module (the extension direction of the paper's foundation
    reference [8], Bian et al., "Solving SAT and MaxSAT with a quantum
    annealer").

    Two exact algorithms run on one incremental {!Cdcl.Solver} session, so
    clauses learnt in one iteration carry to the next:

    {ul
    {- {e Linear} — descending linear search.  Every soft clause gets a
       relaxation selector; the weighted selector count is summed once with
       a binary adder ({!Sat.Cardinality.weighted_sum},
       O(softs · log sum_weights)) and the bound descends from the
       incumbent's cost — one variable-free comparator clause set per round
       — until UNSAT proves the optimum.  Bounds only tighten, so the
       comparator clauses are added permanently — no activation literals.}
    {- {e Core_guided} — Fu–Malik/WPM1 relaxation on
       [solve_with_assumptions]/[unsat_core]: assume every selector false,
       extract a core, pay its minimum weight into the lower bound, split
       the core's clauses (weight remainder kept, a relaxed clone added)
       under a hard exactly-one over the fresh relaxation variables, and
       repeat until SAT — at which point cost equals the lower bound.}}

    Both are seeded by a heuristic incumbent: weighted WalkSAT, which
    draws first from the job's [rng], and annealer sampling only as a
    fallback when WalkSAT's model violates a hard clause.  Every answer
    carries [(best_cost, lower_bound)] so the optimality gap is always
    reported.  {!solve} has no clock of its own: one [should_stop] closure
    (the service's job stop switch: cancel or deadline) stops the seeding
    and the exact search alike. *)

type algorithm = Linear | Core_guided | Auto
(** [Auto] picks [Linear] for small summed soft weight (few descent rounds
    reach the optimum) and [Core_guided] otherwise. *)

val algorithm_label : algorithm -> string
(** ["linear"], ["core-guided"], ["auto"] — stable, used in telemetry and
    CLI flags. *)

type status =
  | Optimal  (** [best_cost = lower_bound]: the model is proven optimal *)
  | Feasible  (** a hard-satisfying model is known, the gap may be open *)
  | Infeasible  (** the hard clauses are unsatisfiable *)
  | Unknown  (** budget/timeout before any hard-satisfying model was found *)

type result = {
  best : bool array option;
      (** hard-satisfying model over the original variables *)
  best_cost : int;  (** [Wcnf.cost] of [best]; [Wcnf.top] when [best = None] *)
  lower_bound : int;  (** proven lower bound on the optimum cost *)
  status : status;
  algorithm_used : algorithm;  (** [Linear] or [Core_guided], never [Auto] *)
  cdcl_calls : int;
  cores : int;  (** unsat cores extracted (core-guided only) *)
  cpu_time_s : float;
      (** wall-clock seconds ([Unix.gettimeofday]) spent in the call,
          despite the name *)
}

val incumbent :
  ?max_flips:int ->
  ?should_stop:(unit -> bool) ->
  Stats.Rng.t ->
  Sat.Wcnf.t ->
  int * bool array
(** Weighted WalkSAT minimiser: {!Cdcl.Walksat.minimise} (walk on a
    random falsified clause, flip a random variable of it, keep the
    best-ever configuration) over [max_flips] flips, default 20,000.
    Hard clauses participate with weight {!Sat.Wcnf.top}, so the returned
    cost is the {e penalised} cost [soft cost + top * violated hard
    clauses] — below [top] iff the model satisfies every hard clause.
    The kernel keeps per-clause true counts and the running cost
    incrementally, so a flip costs O(occurrences · log clauses), not a
    rescan of the formula.  [should_stop] is polled every flip; the best
    configuration so far is still returned after an early stop. *)

val anneal_incumbent :
  ?samples:int ->
  ?should_stop:(unit -> bool) ->
  Stats.Rng.t ->
  Chimera.Graph.t ->
  Sat.Wcnf.t ->
  (int * bool array) option
(** Best of [samples] (default 8) annealing cycles over the weighted QUBO
    (hard clauses at weight [top], softs at their weight, queue ordered by
    weight), each one noise-free {!Anneal.Machine.run_via} on the
    infallible {!Anneal.Backend.best_of} simulator.  Returns the penalised
    cost as in {!incumbent}; [None] when nothing embeds.  [should_stop] is
    polled between cycles.  {!solve}
    calls it only as a fallback, when {!incumbent}'s model violates a hard
    clause, and then on the [rng] stream WalkSAT left behind. *)

val solve :
  ?algorithm:algorithm ->
  ?max_conflicts:int ->
  ?should_stop:(unit -> bool) ->
  ?gap_limit:int ->
  ?max_flips:int ->
  ?rng:Stats.Rng.t ->
  ?graph:Chimera.Graph.t ->
  Sat.Wcnf.t ->
  result
(** Exact weighted MaxSAT.  [max_conflicts] bounds each CDCL call
    (exhaustion returns the incumbent as [Feasible]/[Unknown]);
    [should_stop] (default: never) is the stop switch — the service folds
    the job deadline and its cancel switch into it — enforced through the
    solver's terminate hook {e and} polled by the heuristic seeding phase;
    [gap_limit]
    (default 0) stops as soon as [best_cost - lower_bound <= gap_limit];
    [rng] seeds the WalkSAT incumbent, which draws first (a fixed default
    seed is used when absent).  [graph] enables the annealer incumbent as a
    fallback: it runs only when WalkSAT's model violates a hard clause, so
    with a hard-feasible WalkSAT model the answer is the graph-free one. *)
