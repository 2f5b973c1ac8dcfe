(** Conflict-driven clause-learning SAT solver.

    A from-scratch MiniSAT-style engine: two-watched-literal propagation,
    first-UIP conflict analysis with clause minimisation, activity-ordered
    decision heap (VSIDS or CHB), phase saving, Luby or EMA restarts, and
    learnt-clause database reduction.

    Beyond a classical solver, it exposes the instrumentation HyQSAT needs:
    {ul
    {- per-original-clause activity scores, bumped by a constant whenever the
       clause participates in conflict resolution (paper §IV-A);}
    {- per-original-clause visit counters split into propagation-step visits
       and conflict-resolving visits (paper Fig. 5);}
    {- a single-iteration {!step} API so a hybrid driver can interleave
       quantum-annealer calls with the search;}
    {- feedback hooks: {!set_polarity} (strategy 2 assignment hints),
       {!prioritize_vars} and {!bump_var} (strategy 4 conflict steering).}} *)

type t

type result = Sat.Answer.t =
  | Sat of bool array
  | Unsat
  | Unknown of Sat.Answer.reason
      (** re-export of {!Sat.Answer.t}: the constructors here {e are} the
          shared answer constructors, so values flow between [Cdcl],
          [Hybrid_solver], [Job], [Portfolio] and [Certify] without
          conversion.  [solve] reports [Unknown Budget] when a conflict or
          iteration budget runs out and [Unknown Cancelled] when the
          [set_terminate] hook fires. *)

type stats = {
  decisions : int;
  propagations : int;  (** literals enqueued by unit propagation *)
  conflicts : int;
  restarts : int;
  learnt_clauses : int;  (** total clauses learnt *)
  learnt_literals : int;
  deleted_clauses : int;
  iterations : int;
      (** paper-sense iterations: one decision / propagation / conflict-
          resolving cycle ≙ one decision or one conflict *)
  max_decision_level : int;
}

val create : ?config:Config.t -> Sat.Cnf.t -> t
(** Build a solver over a formula.  Tautological input clauses are ignored
    (they can never propagate); empty clauses make the instance trivially
    unsatisfiable. *)

(** {2 Incremental interface (MiniSAT-style)}

    The solver is a long-lived session: variables and clauses can be added
    between solves, and everything learnt — clauses, VSIDS/CHB activities,
    saved phases — carries over to the next call.  Between calls the root
    level is simplified: clauses satisfied at level 0 are removed (learnt
    deletions are DRAT-logged; satisfied original clauses just turn
    inactive). *)

val new_var : t -> Sat.Lit.var
(** Admit a fresh variable and return its index ([num_vars] before the
    call).  A cached [Sat] answer is invalidated (it does not cover the new
    variable). *)

val add_clause : t -> Sat.Lit.t list -> unit
(** Add a clause over existing or fresh variables (unseen variables are
    admitted automatically).  Backtracks to level 0 first; the clause is
    reduced against the root assignment — satisfied and tautological
    clauses are dropped, falsified literals stripped; an empty result makes
    the instance [Unsat].  Each added clause consumes the next original-
    clause index for the paper instrumentation ({!clause_activity} and
    friends), whether or not it was installed.  No-op once [Unsat]. *)

val solve : ?max_conflicts:int -> ?max_iterations:int -> t -> result
(** Run to completion or until a budget is exhausted ([Unknown]).  Budgets
    are per-call: [solve] may be called again after an [Unknown] and the
    search resumes where it stopped with a fresh budget.  A plain [solve]
    is assumption-free — any assumptions installed by
    {!solve_with_assumptions} are cleared first. *)

val step : t -> [ `Continue | `Sat of bool array | `Unsat | `Unsat_assumptions ]
(** Advance the search by one iteration: propagate, then either resolve a
    conflict (learn + backjump) or take one decision.  Restart and database
    reduction policies run inside.  After [`Sat]/[`Unsat] further calls
    return the same answer.  [`Unsat_assumptions] surfaces only when
    assumptions left installed by an earlier {!solve_with_assumptions}
    are falsified; {!unsat_core} is valid from that point. *)

val stats : t -> stats
val num_vars : t -> int

(** {2 Paper instrumentation}

    The per-clause counters below are maintained only when the
    configuration has {!Config.t.track_paper_stats} (see
    {!Config.with_paper_stats}); with tracking off — the default — the
    propagation and conflict-analysis hot paths skip the counter writes and
    the accessors report the initial values. *)

val clause_activity : t -> int -> float
(** Activity score of the [i]-th original clause (≥ 1.0). *)

val clause_visits : t -> int -> int * int
(** [(propagation_visits, conflict_visits)] of the [i]-th original clause. *)

(** {2 Hybrid feedback hooks} *)

val set_polarity : t -> Sat.Lit.var -> bool -> unit
(** Override the saved phase: the next decision on this variable assigns the
    given value (strategy 2: keep the annealer's assignment). *)

val prioritize_vars : t -> Sat.Lit.var list -> unit
(** Queue variables to be decided before any heap-ordered variable
    (strategy 4: steer straight into the conflicting subproblem). *)

val bump_var : t -> Sat.Lit.var -> float -> unit
(** Add external activity to a variable. *)

(** {2 Introspection} *)

val is_decided : t -> bool
(** [true] once the search has concluded (SAT or UNSAT). *)

val solve_with_assumptions :
  ?max_conflicts:int ->
  ?max_iterations:int ->
  t ->
  Sat.Lit.t list ->
  [ `Sat of bool array | `Unsat | `Unsat_assumptions | `Unknown ]
(** Incremental solving under assumptions (MiniSAT-style): assumption [i]
    is decided at decision level [i+1] before any heuristic decision, so
    the assumptions form a prefix of the trail.  [`Unsat_assumptions]
    means the formula is satisfiable (as far as known) but not under these
    assumptions; {!unsat_core} then gives the subset of assumptions that
    already forces the conflict.  The solver remains usable afterwards,
    keeping everything it learnt.  [`Unknown] means a budget ran out;
    calling again with the {e same} assumptions resumes the search,
    different assumptions restart it from the root (retaining learnt
    clauses). *)

val unsat_core : t -> Sat.Lit.t list
(** After [`Unsat_assumptions]: a subset of the assumption literals whose
    conjunction already makes the formula unsatisfiable (the falsified
    assumption plus the assumptions its refutation rests on, via
    final-conflict analysis).  Not guaranteed minimal.  [[]] before any
    assumption conflict. *)

val export_learnts : t -> Sat.Lit.t array list
(** Snapshot of the most valuable derived clauses: all root-level facts as
    unit clauses, then the most active learnt clauses of length [<= 4],
    capped at 512 clauses in total.
    Every returned clause is a logical consequence of the solver's clause
    set, so it can be {!import_clauses}'d into any solver over the same (or
    a superset) formula. *)

val import_clauses : t -> Sat.Lit.t array list -> int
(** Install foreign learnt clauses (from {!export_learnts} of a solver over
    the same or a subset clause set) and return how many were actually
    installed.  Clauses mentioning unknown variables are skipped; the rest
    are root-reduced like {!add_clause} and added as learnt clauses (so
    database reduction can drop them again).  Returns [0] without
    installing anything when the configuration has [log_proof] — imported
    clauses have no RUP derivation at this point in the log and would break
    {!proof} checkability. *)

val proof : t -> Sat.Drat.t option
(** The DRAT derivation recorded so far, oldest step first; [None] unless
    the configuration enabled [log_proof].  After an [Unsat] answer the
    proof ends with the empty clause and passes {!Sat.Drat.check}. *)

(** {2 Clause arena}

    Clauses are stored in a flat int arena ({!Arena}); deleting learnt or
    root-satisfied clauses leaves dead words behind, which are reclaimed by
    compaction once their fraction exceeds [Config.garbage_frac].
    Compaction relocates clause references (watch lists, reasons, learnt
    list) and never changes answers or search behaviour. *)

val garbage_collect : t -> unit
(** Compact the clause arena now, regardless of the [garbage_frac]
    threshold.  Safe at any decision level. *)

val arena_words : t -> int
(** Current size of the clause arena in words. *)

val arena_wasted : t -> int
(** Words currently occupied by deleted clauses (reclaimed by the next
    compaction). *)

val set_terminate : t -> (unit -> bool) -> unit
(** Install a cooperative-cancellation callback.  {!solve} polls it between
    iterations (at most every 128 steps, and once on entry) and answers
    [Unknown] as soon as it returns [true].  The solver state stays valid:
    [solve] may be called again after the flag clears, continuing the
    search.  The callback must be cheap (e.g. an [Atomic.get]) and is the
    contract the portfolio service uses to stop losing racers; replace it
    with [(fun () -> false)] to disable.  It runs on whatever domain called
    [solve], so it must be safe to call from that domain only. *)

val set_obs : t -> Obs.Ctx.t -> unit
(** Attach an observability context: from then on each learnt clause's
    size is recorded into the [cdcl_learnt_clause_size] histogram.  The
    default is {!Obs.Ctx.null}, which makes every hook a single pointer
    comparison. *)

val flush_obs : t -> unit
(** Push this solver's lifetime counters ([cdcl_conflicts_total],
    [cdcl_propagations_total], [cdcl_decisions_total],
    [cdcl_restarts_total], [cdcl_learnt_clauses_total],
    [cdcl_deleted_clauses_total]) into the attached context.  Call exactly
    once per solver instance, when it is retired — the counts are absolute,
    so flushing twice would double-count.  No-op without {!set_obs}. *)
