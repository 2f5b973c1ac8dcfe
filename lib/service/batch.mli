(** Batch solving service: schedule {!Job.spec}s onto a {!Parallel.Pool}
    of worker domains, each job solved by a (possibly 1-member)
    {!Portfolio} race under its deadline, with bounded reseeding retries
    and full {!Telemetry}.

    Results come back in submission order regardless of worker count, and
    per-job outcomes depend only on the job's seeds — never on scheduling —
    so a batch is reproducible at any [workers] setting.  Each hybrid
    solve builds its own supervised annealer and embedding cache; the one
    solver state a job can hand to a later one is a {!Warm.t} pool of
    learnt clauses. *)

module Warm : sig
  type t
  (** a warm-start pool: learnt clauses keyed by formula structure.
      Thread-safe; shared across the batch's worker domains. *)

  val create : unit -> t
end

type job_result = {
  spec : Job.spec;
  outcome : Job.outcome;
  record : Telemetry.record;
  race : Portfolio.race_report;  (** last attempt's full race detail *)
  error : string option;
      (** the exception the job raised, when it raised: the job then
          answers [unknown:budget] with an idle record *)
}

val run :
  ?workers:int ->
  ?obs:Obs.Ctx.t ->
  ?cancel:(unit -> bool) ->
  ?warm_start:bool ->
  members:(spec:Job.spec -> seed:int -> Portfolio.member list) ->
  Job.spec list ->
  Telemetry.summary * job_result list
(** [run ~workers ~members jobs] solves every job and returns the
    aggregated summary plus per-job results in input order.

    [cancel] is an external kill switch (the CLI wires SIGINT/SIGTERM to
    it), part of each job's stop switch (see {!process}): once it fires,
    in-flight races stop cooperatively within ~128 solver steps and report
    [Unknown Cancelled], no further retries are attempted, and the batch
    still returns normally with full telemetry — nothing dies mid-write.

    With [warm_start] (default [false]) the batch keeps a shared pool of
    learnt clauses keyed by formula structure: when a later job presents a
    formula equal to one already solved, the race's members start from the
    clauses the earlier race learnt (each member imports them into its
    solver before solving — see {!Portfolio.race}'s [import]).  Reuse is
    gated on formula equality, so it never changes an answer, only the
    work needed to reach it; the record's [warm_start] / [reused_clauses]
    telemetry fields say when it happened.  Independently of the pool,
    retry attempts of a single job always re-import what the failed
    attempt learnt.

    With a live [obs] the batch emits one ["batch"] root span containing
    the ["job"] span {!process} opens for each job.  The
    [jobs_total{outcome=...}] counters aggregate final outcomes.

    [members ~spec ~seed] builds the portfolio for one attempt of [spec]
    (so it can honour the job's {!Job.qa_policy}); retries call it again
    with {!Job.attempt_seed} so every attempt searches differently.
    [workers] defaults to 1 and counts {e concurrent jobs}: the pool spawns
    [workers - 1] domains and the calling domain helps execute the batch
    ({!Parallel.Pool.run}), so [workers = 1] runs everything inline with
    no domain spawned at all.  A job that raises — its [members] closure
    included — answers [unknown:budget] with the exception in its
    result's [error], and every other job keeps its answer (a raising
    portfolio member is absorbed by the race itself — see
    {!Portfolio.race}).

    Sat models are projected back to the job's original variable space
    ({!Job.original_formula}) before being reported.  When the job has
    [certify] set, the winner is checked first — the Sat model against the
    original formula, the Unsat DRAT proof against the solved formula (the
    members must run with [log_proof] for a proof to exist) — and a claim
    the checker rejects comes back as [Unknown Cert_failed] with the
    reason in the record's [verified] field.  The job's stop switch also
    reaches the DRAT check (polled once per lemma): a check it stops
    certifies nothing, so the Unsat claim comes back as
    [Unknown Cancelled] or [Unknown Timeout], never as an unchecked
    [Unsat].

    A spec carrying a [wcnf] is an {e optimisation job}: instead of racing
    [members], the worker runs the exact weighted-MaxSAT pipeline
    ({!Hyqsat.Optimize.solve} with the hybrid graph, its RNG seeded with
    the spec's attempt-0 seed, bounded by the job's stop switch, its
    budget and [gap_limit]) and reports
    [Sat model] / [Unsat] / [Unknown] through the same shapes, with the
    record's [cost]/[lower_bound] fields filled (decision jobs write -1).
    [certify] then means {!Check.Certify.certify_opt}: cost re-check plus
    an independent optimality re-solve. *)

val solo :
  ?grid:int ->
  ?log_proof:bool ->
  string ->
  spec:Job.spec ->
  seed:int ->
  Portfolio.member list
(** [solo name] is a 1-member portfolio — the degenerate race used for
    plain batch solving ([--jobs] without [--portfolio]).  Partially
    applied ([solo "minisat"]) it has exactly the [members] closure shape
    {!run} expects, picking up each job's QA policy from its spec. *)

val resolve :
  ?grid:int ->
  ?log_proof:bool ->
  string ->
  spec:Job.spec ->
  seed:int ->
  Portfolio.member list
(** [resolve solver] turns a solver name into the [members] closure {!run}
    and {!process} take: a {!Portfolio.member_names} entry runs {!solo},
    and ["portfolio"] races all of them.  Members log DRAT proofs when
    [log_proof] (default [false]) is set or the job certifies.  The CLI
    and the daemon both resolve their [--solver] through it.  An unknown
    name raises [Invalid_argument] from the closure, which {!process}
    turns into an [unknown:budget] answer. *)

val process :
  ?cancel:(unit -> bool) ->
  ?warm:Warm.t ->
  ?worker:int ->
  ?attrs:(string * string) list ->
  members:(spec:Job.spec -> seed:int -> Portfolio.member list) ->
  obs:Obs.Ctx.t ->
  parent:Obs.Span.t ->
  Job.spec ->
  enqueued_at:float ->
  unit ->
  job_result
(** Solve one spec synchronously: the one job runner, which {!run}
    schedules onto its pool and the server dispatcher onto its own.  Runs
    the full attempt/retry/certify pipeline and returns the same
    {!job_result} a batch would record; [enqueued_at] (absolute epoch
    seconds) anchors the record's [queue_wait_s], and the job's deadline
    starts with the call.  The deadline and [cancel] make one stop switch
    that every phase polls (race, retry check, MaxSAT search,
    certification); a job it stops answers [unknown:cancelled] when
    [cancel] fired, else [unknown:timeout].  [warm] taps the job
    into a shared {!Warm.t} pool (consult before solving, deposit after)
    — the dispatcher uses one pool per server session.

    With a live [obs] the job runs in a ["job"] span under [parent] (attrs
    [id], [name], [worker] when given, then [attrs], and [outcome] at the
    end) containing one ["attempt"] span per portfolio race (so retries
    are visible), which in turn parents the race/member/solve spans; the
    [jobs_total{outcome=...}] counter counts the job.  Any exception the
    job raises is captured: the result is {!unstarted}[ (Unknown Budget)]
    with the exception in [error]. *)

val unstarted : Job.spec -> Job.outcome -> queue_wait_s:float -> job_result
(** The result of a job that did no solver work (the dispatcher retires
    drained queue entries with it): [outcome], a record with zero
    attempts and activity, and an empty race. *)
