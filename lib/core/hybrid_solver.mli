(** The HyQSAT hybrid solver (paper §III, Fig. 4).

    A CDCL search whose first √K iterations (the warm-up stage, K being the
    estimated classical iteration count) are guided by the quantum annealer:
    each warm-up iteration sends the currently hardest clause queue through
    the frontend, samples the annealer once, and applies the backend's
    feedback strategy; afterwards the search continues as classic CDCL. *)

type config = {
  cdcl : Cdcl.Config.t;
  graph : Chimera.Graph.t;
  noise : Anneal.Noise.t;
  timing : Anneal.Timing.t;
  calibration : Calibration.t;
  queue_mode : Frontend.queue_mode;
  adjust_coefficients : bool;
  strategies : Backend.enabled;
  qa_period : int;  (** run the annealer every [qa_period] warm-up iterations *)
  warmup_fraction : float;
      (** warm-up length = [warmup_fraction × √K_est]; 1.0 = the paper *)
  qa_reads : int;
      (** annealer samples per QA call (best-of by energy, the multi-sample
          device mode); 1 = the paper's single-shot protocol *)
  qa_domains : int;
      (** OCaml domains fanning the [qa_reads] samples; the answer is
          deterministic in the seed whatever this is set to *)
  backend : Anneal.Backend.t;
      (** the annealer device every QA call goes through (default
          {!Anneal.Backend.best_of}); wrap with
          {!Anneal.Backend.with_faults} to exercise degradation *)
  supervision : Anneal.Supervisor.policy;
      (** deadline / retry / circuit-breaker policy applied to [backend] *)
  seed : int;
}

val default_config : config
(** Noise-free annealer on the 16×16 graph, paper defaults everywhere. *)

val make_config :
  ?base:config ->
  ?cdcl:Cdcl.Config.t ->
  ?graph:Chimera.Graph.t ->
  ?noise:Anneal.Noise.t ->
  ?timing:Anneal.Timing.t ->
  ?calibration:Calibration.t ->
  ?queue_mode:Frontend.queue_mode ->
  ?adjust_coefficients:bool ->
  ?strategies:Backend.enabled ->
  ?qa_period:int ->
  ?warmup_fraction:float ->
  ?qa_reads:int ->
  ?qa_domains:int ->
  ?backend:Anneal.Backend.t ->
  ?supervisor:Anneal.Supervisor.policy ->
  ?seed:int ->
  unit ->
  config
(** The one way call sites build configs: every field defaults to [base]
    (itself defaulting to {!default_config}), so adding a config field
    never breaks callers.  Do not construct [config] record literals
    outside this module. *)

val noisy_config : config
(** [make_config ~noise:Anneal.Noise.default_2000q ()] — the "real-world
    QA" mode of Table II. *)

type mode = Hybrid of config | Classic of Cdcl.Config.t
    (** what {!run} runs: the full quantum-guided pipeline, or the pure
        CDCL baseline through the same reporting type (zero QA). *)

val mode_label : mode -> string
(** ["hybrid"] or ["classic"] — stable strings used in telemetry. *)

type report = {
  result : Cdcl.Solver.result;
  assumption_core : Sat.Lit.t list option;
      (** [Some core] when the answer is [Unsat] {e under the call's
          assumptions} only — the formula itself is satisfiable as far as
          the search knows, and [core] is the conflicting assumption subset
          ({!Cdcl.Solver.unsat_core}).  [None] on an assumption-free solve
          or a genuine [Unsat]. *)
  iterations : int;  (** CDCL iterations executed {e by this call} *)
  warmup_iterations : int;  (** warm-up budget used *)
  qa_calls : int;  (** successful annealer consultations *)
  qa_failures : int;
      (** failed supervised attempts, including breaker fast-fails (the
          supervisor's [stats.failures]) *)
  qa_degraded : int;
      (** warm-up iterations that fell through to pure CDCL because the
          supervised call failed (retries exhausted or breaker open) *)
  qa_time_us : float;  (** modelled annealer wall-clock *)
  frontend_time_s : float;  (** measured CPU *)
  backend_time_s : float;  (** measured CPU *)
  cdcl_time_s : float;  (** measured CPU of the classical search *)
  strategy_uses : int array;  (** length 4: uses of strategies 1–4 *)
  solver_stats : Cdcl.Solver.stats;
      (** cumulative over the solver's lifetime — equal to this call's work
          only when the solver was created for this call *)
  reused_clauses : int;
      (** clauses actually installed from the call's [import] list *)
  learnts : Sat.Lit.t array list;
      (** {!Cdcl.Solver.export_learnts} snapshot at the end of the call:
          root-level facts plus the most active short learnt clauses, for
          warm-starting a sibling solver over the same formula *)
  proof : Sat.Drat.t option;
      (** DRAT derivation when [cdcl.log_proof] is set — the strategy
          feedback only injects phase/priority hints, never clauses, so
          every logged step is an ordinary RUP-checkable learnt clause *)
}

val end_to_end_time_s : report -> float
(** frontend + QA (modelled) + backend + CDCL, fully serialised. *)

val end_to_end_pipelined_s : report -> float
(** Like {!end_to_end_time_s} but with the frontend overlapped with the
    annealer execution, as the paper deploys it (§VI-C: "the hardware
    embedding is pipelined with the clause queue generation"; §VII-A hides
    the switching latency the same way): max(frontend, QA) + backend +
    CDCL. *)

val estimate_iterations : Sat.Cnf.t -> int
(** The paper's K estimate from variable and clause counts. *)

val run :
  ?supervisor:Anneal.Supervisor.t ->
  ?max_iterations:int ->
  ?should_stop:(unit -> bool) ->
  ?obs:Obs.Ctx.t ->
  ?parent:Obs.Span.t ->
  ?solver:Cdcl.Solver.t ->
  ?embed_cache:Frontend.cache ->
  ?assumptions:Sat.Lit.t list ->
  ?import:Sat.Lit.t array list ->
  mode ->
  Sat.Cnf.t ->
  report
(** The one solver entry point.  [Hybrid config] runs the quantum-guided
    pipeline below; [Classic config] runs the pure-CDCL baseline through
    the same reporting type ([embed_cache] is then unused).  Prefer the
    {!Solve} facade unless you need the extra knobs.

    Incremental knobs (all default to a cold one-shot solve):
    {ul
    {- [solver] reuses a caller-owned {!Cdcl.Solver.t} instead of building
       one from [f] — learnt clauses, activities and phases carry over from
       its previous calls.  The solver's clause numbering must agree with
       [f] (index [i] of [f] ↔ original clause [i] of the solver), which
       holds when the solver was built from [f] or grown clause-by-clause
       alongside it ({!Solve.Session} maintains this).  Its lifetime obs
       counters are {e not} flushed here — the owner retires it.}
    {- [embed_cache] reuses a caller-owned embedding cache (hybrid mode)
       rather than a per-solve one.}
    {- [assumptions] solves under the conjunction of the given literals:
       [Sat] models satisfy them; [Unsat] with [assumption_core = Some _]
       means unsatisfiable {e under the assumptions} only.  An annealer
       model that violates an assumption is demoted to hints (never
       returned as the answer).}
    {- [import] installs foreign learnt clauses
       ({!Cdcl.Solver.import_clauses}) before searching; the count actually
       installed is reported as [reused_clauses].  No-op under proof
       logging.}}

    [supervisor] overrides the per-solve supervisor built from
    [config.backend]/[config.supervision]: pass a shared instance to put
    every solve behind {e one} circuit-broken device (the server
    dispatcher's deployment shape — see {!Anneal.Supervisor.sample} on
    domain-safety).  The report's [qa_failures] is then this solve's delta
    of the shared failure count, which can over-attribute under concurrent
    interleaving; exact when solves are serial.

    [should_stop] is a cooperative-cancellation callback polled between
    iterations (every 128 steps); when it returns [true] the search stops
    and the report carries [Unknown Cancelled].  It must be cheap and safe
    to call from the solving domain — the service layer passes an
    [Atomic.get].  [max_iterations] is the step budget: the search executes
    at most that many CDCL iterations before answering [Unknown Budget].

    Every QA call goes through an {!Anneal.Supervisor} built from
    [config.backend] and [config.supervision] (jitter seed derived from
    [config.seed], so runs replay exactly).  When a supervised call fails
    — retries exhausted or breaker open — that warm-up iteration degrades
    to pure CDCL: no hints are applied, [qa_degraded] is bumped, and the
    search continues; at a 100 % failure rate the solve is bit-identical
    to [Classic] mode modulo reporting.

    With a live [obs] the hybrid mode emits a ["hybrid_solve"] span (under
    [parent]) containing one ["warmup_iter"] span per annealer
    consultation — each with ["frontend"] (and its ["embed"] child),
    ["anneal"] and ["backend"] children carrying the report's own stage
    times (modelled time for the anneal) — plus a final ["cdcl"] span, so
    the frontend/anneal/backend/cdcl span durations of one solve sum
    exactly to {!end_to_end_time_s}.  Each annealer consultation also
    emits a ["qa_call"] span with [backend] and [status] (["ok"] or a
    failure label) attributes.  Counters: [qa_calls_total],
    [qa_degraded_total] and the supervisor's [qa_backend_calls_total] /
    [qa_failures_total{reason=…}] / [qa_retries_total] /
    [qa_breaker_transitions_total{to=…}] family,
    [strategy_uses_total{strategy=...}], the annealer's and the CDCL
    engine's own metrics, and the per-solve embedding cache's
    [embed_cache_hits_total] / [embed_cache_misses_total] (each solve owns
    one {!Frontend.cache} unless [embed_cache] is passed, so repeated
    conflict-hot queues skip place/route).

    [Classic] mode emits a ["classic_solve"] span with one ["cdcl"] child
    and the CDCL engine's metrics; [should_stop] is installed via
    {!Cdcl.Solver.set_terminate}. *)
