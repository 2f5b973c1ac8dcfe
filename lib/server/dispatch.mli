(** The daemon's scheduling core: admission control in front of a
    {!Parallel.Pool} of solver workers.

    Admission is checked in order — draining, {!job_of_spec}, per-client
    {!Quota}, bounded {!Jobq} — and each failure maps to a wire error
    code ({!Protocol.section-codes}).  Accepted jobs wait in the priority
    queue until a worker slot frees, then run the full
    {!Service.Batch.process} pipeline (retries, certification,
    telemetry) under the dispatcher's cancel flag, so a drain stops them
    cooperatively mid-solve.

    A job is solved exactly as the one-shot CLI solves it: every hybrid
    solve builds its own supervised annealer and embedding cache.  The
    one solver state that crosses jobs is a wire session's learnt-clause
    pool ({!Service.Batch.Warm.t}), kept per (client, session name).

    Threading: every function below must be called from the event-loop
    thread.  Worker domains only append to an internal completion queue
    and fire [on_complete] (safe to call from any domain — the daemon
    writes a self-pipe byte there). *)

type config = {
  workers : int;  (** solver worker domains *)
  queue_capacity : int;  (** admission queue bound (backpressure point) *)
  per_client : int;  (** max jobs in flight per client name *)
  grace_s : float;  (** drain: seconds running jobs get before cancel *)
  solver : string;  (** a {!Service.Portfolio.member_names} entry, or
                        ["portfolio"] for the full race *)
  grid : int;  (** Chimera grid for hybrid members *)
  seed : int;  (** server seed; job [id] without an explicit seed gets
                   [seed + 101·id], the one-shot CLI's derivation *)
}

val default_config : config
(** 1 worker, queue 64, 16 per client, 2 s grace, ["hybrid"], grid 16,
    seed 42. *)

type verdict =
  | Accepted of { position : int; queued : int }
  | Rejected of { code : string; reason : string; retry_after_s : float option }

type completion = {
  client : string;
  conn : int;  (** the connection key given to {!submit} *)
  job_id : int;  (** wire id, echoed into the [Result] *)
  result : Service.Batch.job_result;
      (** a job that raised answers [unknown:budget] with the exception in
          [result.error] ({!Service.Batch.process}) *)
}

type t

val create : ?obs:Obs.Ctx.t -> ?on_complete:(unit -> unit) -> config -> t

val job_of_spec :
  ?qa:Service.Job.qa_policy -> seed:int -> Protocol.job_spec -> (Service.Job.spec, string) result
(** Build the job a spec describes: the one place a job is built, for the
    daemon's admission and the one-shot CLI alike.  It checks each
    numeric field once and refuses a bad value rather than clamping it:
    [gap_limit >= 0], [retries >= 0], [max_iterations >= 1], and a
    [timeout_s] that is finite and [> 0].  It then parses [dimacs] by
    [format] ({!Protocol.job_spec}): no format is a DIMACS decision job
    ({!Service.Job.make}, which 3-SAT-converts a non-3-SAT input),
    ["wcnf"] a WDIMACS optimisation job, and ["maxsat"] a DIMACS text
    with every clause soft at weight 1 ({!Sat.Wcnf.of_cnf}).  A spec
    without a seed gets [seed + 101·id].  [qa] (default
    {!Service.Job.default_qa}) is the annealer policy of hybrid members.

    [Error reason] on the first failure: an out-of-range field (the reason
    starts with the field's wire name, e.g. ["gap_limit must be >= 0, got
    -1"]), an unknown format (it starts with ["format"]), or a parse error
    (["line L: reason"]). *)

val submit : t -> client:string -> conn:int -> Protocol.job_spec -> verdict
(** Run the admission pipeline and, on acceptance, schedule as soon as a
    worker is free.  A spec {!job_of_spec} refuses is rejected with code
    ["parse"] and its reason, and nothing is queued.  The rejection's
    [retry_after_s] is populated for ["queue_full"]. *)

val take_completions : t -> completion list
(** Retire every finished job (oldest first): releases quota slots,
    updates {!counters}, and feeds freed worker slots from the queue.
    Non-blocking; call after [on_complete] fired. *)

val running : t -> int

val idle : t -> bool
(** No job queued, running, or finished-but-unretired. *)

val counters : t -> Drain.report
(** Jobs accepted, and retired by {!take_completions} or {!begin_drain},
    so far: [completed] counts real (non-cancelled) outcomes.  [wall_s] is
    always 0 — the daemon fills in its drain's wall time. *)

val begin_drain : t -> completion list
(** Stop accepting ([submit] answers ["draining"]) and cancel every
    queued job: each is retired here, once, and returned (in queue
    order) as an [unknown:cancelled] completion; a second call returns
    [[]].  Running jobs keep going and still retire through
    {!take_completions} — follow with {!cancel_running} when the grace
    period lapses. *)

val cancel_running : t -> unit
(** Flip the cooperative cancel flag: in-flight solves stop within ~128
    solver steps and retire as [unknown:cancelled]. *)

val shutdown : t -> unit
(** Join the worker pool.  Call once {!idle} — with jobs still running
    it blocks until they finish (so cancel first). *)
