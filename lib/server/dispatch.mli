(** The daemon's scheduling core: admission control in front of a
    {!Parallel.Pool} of solver workers, sharing one supervised annealer.

    Admission is checked in order — draining, DIMACS parse, per-client
    {!Quota}, bounded {!Jobq} — and each failure maps to a wire error
    code ({!Protocol.section-codes}).  Accepted jobs wait in the priority
    queue until a worker slot frees, then run the full
    {!Service.Batch.process} pipeline (retries, certification,
    telemetry) under the dispatcher's cancel flag, so a drain stops them
    cooperatively mid-solve.

    All hybrid members go through {e one} {!Anneal.Supervisor} created at
    {!create} — the shared-device model: a single circuit breaker
    protects the annealer across every job and connection.

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

type counters = {
  accepted : int;
  completed : int;  (** retired with a real (non-cancelled) outcome *)
  cancelled_queued : int;
  cancelled_running : int;
}

type t

val create : ?obs:Obs.Ctx.t -> ?on_complete:(unit -> unit) -> config -> t

val submit : t -> client:string -> conn:int -> Protocol.job_spec -> verdict
(** Run the admission pipeline and, on acceptance, schedule as soon as a
    worker is free.  The rejection's [retry_after_s] is populated for
    ["queue_full"]. *)

val take_completions : t -> completion list
(** Retire every finished job (oldest first): releases quota slots,
    updates {!counters}, and feeds freed worker slots from the queue.
    Non-blocking; call after [on_complete] fired. *)

val queued : t -> int

val running : t -> int

val idle : t -> bool
(** No job queued, running, or finished-but-unretired. *)

val counters : t -> counters

val draining : t -> bool

val begin_drain : t -> unit
(** Stop accepting ([submit] answers ["draining"]) and cancel every
    queued job: each is retired through {!take_completions} exactly once
    as an [unknown:cancelled] completion.  Running jobs keep going —
    follow with {!cancel_running} when the grace period lapses. *)

val cancel_running : t -> unit
(** Flip the cooperative cancel flag: in-flight solves stop within ~128
    solver steps and retire as [unknown:cancelled]. *)

val shutdown : t -> unit
(** Join the worker pool.  Call once {!idle} — with jobs still running
    it blocks until they finish (so cancel first). *)
