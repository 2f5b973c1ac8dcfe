(** Portfolio racing: run diverse solver configurations on the same
    formula as tasks on the process-wide {!Parallel.Pool.shared} pool and
    keep the first definite answer.  A race spawns no domains of its own:
    members queue for the pool's lanes, so the domain count stays bounded
    by the pool sizes however many races run at once.

    Each member receives a [should_stop] callback combining the shared
    race-cancel flag (set by the first member to answer Sat/Unsat) with the
    job's one stop switch, which {!Batch} builds from the caller's cancel
    and the job deadline; the cancellation contract of
    {!Cdcl.Solver.set_terminate} / {!Hyqsat.Solve.run} guarantees losers
    return within ~128 solver steps of the flag flipping, and a member that
    reaches a lane after that never starts.  Members share nothing but the
    formula and the [import] list: each hybrid solve has its own
    supervised annealer and embedding cache. *)

type solve_stats = {
  result : Cdcl.Solver.result;  (** = {!Sat.Answer.t} (shared constructors) *)
  iterations : int;
  qa_calls : int;
  qa_failures : int;  (** failed supervised QA attempts, incl. fast-fails *)
  qa_degraded : int;  (** warm-up iterations degraded to pure CDCL *)
  strategy_uses : int array;  (** length 4; zeros for classical members *)
  reused_clauses : int;
      (** clauses installed from the race's [import] list (0 for walksat) *)
  learnts : Sat.Lit.t array list;
      (** the member's {!Cdcl.Solver.export_learnts} snapshot at race end:
          root facts + its most active short learnt clauses ([[]] for
          walksat).  Sound implicates of the raced formula — feed them to
          {!race}'s [import] on the next solve of the same formula. *)
  proof : Sat.Drat.t option;
      (** DRAT derivation, present when the member ran with proof logging
          ([log_proof] below); [None] for walksat *)
}

val idle_stats : Cdcl.Solver.result -> solve_stats
(** [idle_stats result] is a member's stats when it did no solver work:
    [result], and zero iterations, QA calls, reused clauses, learnts and
    no proof. *)

type member = {
  name : string;
  run :
    obs:Obs.Ctx.t ->
    parent:Obs.Span.t ->
    should_stop:(unit -> bool) ->
    max_iterations:int ->
    import:Sat.Lit.t array list ->
    Sat.Cnf.t ->
    solve_stats;
      (** [obs]/[parent] thread the race's observability context into the
          member's solve (pass {!Obs.Ctx.null} / {!Obs.Span.none} when
          untraced — the race does this automatically); [import] is a
          warm-start clause list the member may install before searching
          (members without a clause database ignore it) *)
}

type member_report = {
  member : string;
  stats : solve_stats;
  time_s : float;
  cancelled : bool;  (** returned [Unknown] after the race was decided *)
  error : string option;
      (** [Some exn] when the member raised; its result is forced to
          [Unknown] and the race carries on with the other members *)
}

type race_report = {
  winner : member_report option;  (** first member to answer Sat/Unsat *)
  members : member_report list;  (** input order, winner included *)
  wall_time_s : float;
}

val member_names : string list
(** The stock portfolio, cheapest first: ["minisat"; "kissat"; "walksat";
    "hybrid"; "hybrid-noisy"].  {!race} picks members up in list order,
    so the classical members take the pool's lanes before the simulated
    annealers.  Member seeds are keyed by name, not position. *)

val members_named :
  ?grid:int ->
  ?log_proof:bool ->
  ?qa:Job.qa_policy ->
  seed:int ->
  string list ->
  member list
(** The named stock members ({!member_names} is the full portfolio),
    solver RNGs derived from [seed].  [grid] sizes the simulated Chimera
    topology for the hybrid members (default 16 = D-Wave 2000Q).
    [log_proof] (default [false]) makes the CDCL-backed members record
    DRAT derivations so Unsat answers are checkable.  [qa] (default
    {!Job.default_qa}) is the annealer policy of the hybrid members:
    simulator faults, supervision, and best-of-k reads split into that
    many chunks on {!Parallel.Pool.shared}.  Each hybrid solve builds its
    own supervised device and embedding cache from [qa], so no member
    shares annealer state with another member or another job.
    @raise Invalid_argument on an unknown name. *)

val race :
  ?should_stop:(unit -> bool) ->
  ?max_iterations:int ->
  ?obs:Obs.Ctx.t ->
  ?parent:Obs.Span.t ->
  ?import:Sat.Lit.t array list ->
  member list ->
  Sat.Cnf.t ->
  race_report
(** Race the members on [f]: each member is one task on
    {!Parallel.Pool.shared} (a one-member race runs inline on the
    caller), and the first Sat/Unsat answer cancels the rest.
    [should_stop] is the job's stop switch (cancel or deadline), folded
    into every member's own [should_stop]: once it fires, in-flight members
    stop within ~128 solver steps.  Members are picked up in list order;
    one picked up after the race was won, or once [should_stop] has fired,
    is reported [cancelled] with {!idle_stats}
    [(Unknown Cancelled)] and never runs.  Every member has
    finished before [race] returns, so the report is complete.  A member
    that raises is reported with [error = Some _] and result [Unknown]
    instead of propagating — sibling reports and a winner found by
    another member survive.

    With a live [obs], the race emits a ["race"] span (attr [winner]) with
    one ["member"] child per member — attrs [name], [result], and
    [cancelled]/[error] as applicable — each passed down as the parent of
    that member's own solve spans.  {!Obs.Ctx.t} is domain-safe, so
    members emit concurrently.

    [import] (default [[]]) warm-starts every CDCL-backed member with the
    given clause list — only sound when each clause is an implicate of
    [f], e.g. {!race_learnts} of a previous race on the {e same} formula.
    Proof-logging members refuse the import and report [reused_clauses=0].
    @raise Invalid_argument on an empty member list. *)

val race_learnts : ?max_clauses:int -> race_report -> Sat.Lit.t array list
(** Merge the members' exported learnt clauses — winner's first, then the
    others', deduplicated (up to literal order), capped at [max_clauses]
    (default 512).  Every clause is an implicate of the raced formula, so
    the list is a sound [import] for another solve of that formula. *)
