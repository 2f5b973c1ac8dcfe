(** Graceful-shutdown bookkeeping shared by the daemon and the one-shot
    CLI: a stop flag flipped by SIGTERM/SIGINT, and the report of what
    happened to accepted work once the drain finished.

    The contract both front ends honour: on the first signal, stop
    accepting new work, let queued jobs be cancelled exactly once, give
    running jobs a grace period to finish before cancelling them
    cooperatively, flush telemetry, then exit normally with this report. *)

type report = {
  accepted : int;  (** jobs admitted over the process lifetime *)
  completed : int;  (** finished with a real outcome before the drain *)
  cancelled_queued : int;  (** drained out of the queue, never started *)
  cancelled_running : int;  (** in flight at drain, stopped cooperatively *)
  wall_s : float;  (** from drain start to last job retired *)
}

val cancelled : report -> int
(** [cancelled_queued + cancelled_running]. *)

val pp : Format.formatter -> report -> unit
(** One human line, e.g.
    [drained: 12 accepted, 9 completed, 3 cancelled (2 queued, 1 running) in 0.41s]. *)

val to_json_string : report -> string
(** Versioned JSON object ({!Service.Telemetry.schema_version}), for the
    machine-readable drain report. *)

val install_stop_handlers : unit -> bool Atomic.t
(** Install handlers for SIGTERM and SIGINT that set the returned flag on
    first delivery; a second signal while draining exits immediately with
    code 130.  Returns the flag polled by the cooperative-cancellation
    paths ({!Service.Batch.run}'s [cancel], the daemon's event loop). *)
