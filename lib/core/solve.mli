(** The single decision-solving entry point.

    Every portfolio member above lib/core goes through {!run} with a
    {!mode} value, so adding a solving mode is a new variant, not a new
    function to thread through every layer.  {!run} solves one formula
    once; incremental solving (clauses added between solves, assumptions,
    cores) is {!Cdcl.Solver}'s own API, and weighted MaxSAT is
    {!Optimize.solve}.  Stopping is one [should_stop] closure: the service
    folds a job's cancel switch and deadline into it, and {!run} never
    reads a clock to decide when to stop. *)

type mode = Hybrid_solver.mode =
  | Hybrid of Hybrid_solver.config
      (** CDCL with annealer-guided warm-up; QA calls go through the
          config's supervised {!Anneal.Backend} and degrade to pure CDCL
          on failure *)
  | Classic of Cdcl.Config.t  (** the pure-CDCL baseline *)

val hybrid : ?config:Hybrid_solver.config -> unit -> mode
(** [Hybrid] with {!Hybrid_solver.default_config} by default. *)

val classic : ?config:Cdcl.Config.t -> unit -> mode
(** [Classic] with [Cdcl.Config.minisat_like] by default. *)

val run :
  ?max_iterations:int ->
  ?should_stop:(unit -> bool) ->
  ?obs:Obs.Ctx.t ->
  ?parent:Obs.Span.t ->
  ?embed_cache:Frontend.cache ->
  ?import:Sat.Lit.t array list ->
  mode ->
  Sat.Cnf.t ->
  Hybrid_solver.report
(** The one solve body.  Both modes share one path: build a solver from
    [f] (hybrid mode with {!Cdcl.Config.with_paper_stats}, which the
    frontend's clause ranking reads), install [obs], [import] and
    [should_stop], then make {e one} call of {!Cdcl.Solver.solve} with the
    remaining iteration budget.  [Hybrid config] first runs the warm-up
    (paper §III, Fig. 4): at most [config.warmup_fraction ·
    √{!Hybrid_solver.estimate_iterations}] {!Cdcl.Solver.step}s, every
    [config.qa_period]-th one preceded by an annealer consultation —
    frontend, one supervised QA call, backend feedback strategy.  The
    warm-up ends early when a step decides the instance or a verified
    annealer model answers it, and is skipped when [f] or [import] refutes
    the solver before the search starts; afterwards the search is exactly
    the [Classic] one.  [Classic] mode reports zero QA activity, and both
    modes return the one {!Hybrid_solver.report} type, so callers never
    branch on the mode to read results.  Stage times in
    the report ([frontend_time_s], [backend_time_s], [cdcl_time_s]) are
    measured wall-clock ([Unix.gettimeofday]); [qa_time_us] is modelled.

    Warm-start knobs (both default to a cold solve):
    {ul
    {- [embed_cache] reuses a caller-owned embedding cache (hybrid mode;
       unused by [Classic]) rather than a per-solve one.  The service
       layer never passes one: every job's solve starts from an empty
       cache.}
    {- [import] installs foreign learnt clauses
       ({!Cdcl.Solver.import_clauses}) before searching; the count actually
       installed is reported as [reused_clauses].  No-op under proof
       logging.}}

    [max_iterations] is the step budget: the call executes at most that
    many CDCL iterations, warm-up included, before answering
    [Unknown Budget].  [should_stop] is a cooperative-cancellation
    callback, installed with {!Cdcl.Solver.set_terminate} (polled every
    128 steps of the search) and also polled before every warm-up
    iteration; once it returns [true] the report carries
    [Unknown Cancelled].  It must be cheap and safe to call from the
    solving domain — the service layer passes an [Atomic.get].

    Hybrid mode builds one {!Anneal.Supervisor} per solve from
    [config.backend] and [config.supervision] (jitter seed derived from
    [config.seed], so runs replay exactly), and the report's [qa_failures]
    is that supervisor's failure count.  When a supervised call fails —
    retries exhausted or breaker open — that warm-up iteration degrades to
    pure CDCL: no hints are applied, [qa_degraded] is bumped, and the
    search continues; at a 100 % failure rate the solve is
    bit-identical to [Classic] mode modulo reporting.

    With a live [obs] the hybrid mode emits a ["hybrid_solve"] span (under
    [parent], with [vars] and [clauses] attributes) containing one
    ["warmup_iter"] span per annealer consultation — each with
    ["frontend"] (and its ["embed"] child), ["anneal"] and ["backend"]
    children carrying the report's own stage times (modelled time for the
    anneal) — plus a final ["cdcl"] span, so the
    frontend/anneal/backend/cdcl span durations of one solve sum exactly
    to {!Hybrid_solver.end_to_end_time_s}.  Each annealer consultation
    also emits a ["qa_call"] span with [backend] and [status] (["ok"] or a
    failure label) attributes, and an ["anneal_host"] span with the wall
    time of its {!Anneal.Machine.run_via} call (device simulation and
    host-side repair), on success and failure alike; it overlaps the
    modelled ["anneal"] span and is not one of the summed stages.
    Counters: [qa_calls_total], [qa_degraded_total] and the supervisor's
    [qa_backend_calls_total] / [qa_failures_total{reason=…}] /
    [qa_retries_total] /
    [qa_breaker_transitions_total{to=…}] family,
    [strategy_uses_total{strategy=...}], the annealer's and the CDCL
    engine's own metrics, and the per-solve embedding cache's
    [embed_cache_hits_total] / [embed_cache_misses_total] (each solve owns
    one {!Frontend.cache} unless [embed_cache] is passed, so repeated
    conflict-hot queues skip place/route).  [Classic] mode emits a
    ["classic_solve"] span with one ["cdcl"] child and the CDCL engine's
    metrics.  Both root spans carry a [result] attribute. *)
