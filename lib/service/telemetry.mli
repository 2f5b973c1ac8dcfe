(** Per-job run telemetry and service-level aggregation.

    Every job the batch service executes emits one {!record}; a finished
    run aggregates them into a {!summary}.  Both serialise through {!Json}
    to a document that round-trips through {!of_json_string}, and
    pretty-print as an aligned table for interactive use. *)

type record = {
  job_id : int;
  job_name : string;
  outcome : string;  (** {!Job.outcome_label} string *)
  verified : string;
      (** certification verdict: ["model"] (Sat model checked against the
          original formula), ["proof"] (Unsat DRAT proof checked),
          ["failed: <why>"], or [""] when certification was off or there
          was nothing to certify *)
  winner : string;  (** portfolio member that answered first; [""] if none *)
  attempts : int;  (** 1 + retries actually used *)
  queue_wait_s : float;  (** enqueue → worker pickup *)
  solve_time_s : float;  (** worker pickup → answer, all attempts *)
  iterations : int;  (** winner's CDCL iterations (max over members if none) *)
  qa_calls : int;  (** winner's successful annealer calls *)
  qa_failures : int;
      (** winner's failed supervised QA attempts (incl. breaker fast-fails) *)
  degraded : int;
      (** winner's warm-up iterations that fell back to pure CDCL *)
  strategy_uses : int array;  (** length 4, winner's strategy-1..4 uses *)
  warm_start : bool;
      (** the solve started from a reused clause pool (batch warm-start or
          daemon session mode) *)
  reused_clauses : int;
      (** winner's count of imported clauses actually installed *)
  cost : int;
      (** optimisation jobs: best model cost found ({!Hyqsat.Optimize});
          [-1] for decision jobs (and for v4-and-older documents) *)
  lower_bound : int;
      (** optimisation jobs: proven lower bound on the optimum — equal to
          [cost] iff the answer is certified optimal; [-1] for decision
          jobs *)
}

type summary = {
  jobs : int;
  sat : int;
  unsat : int;
  unknown : int;
  workers : int;
  wall_time_s : float;  (** submit of first job → last result *)
  total_solve_s : float;  (** Σ solve_time — CPU the pool actually spent *)
  max_solve_s : float;
  mean_queue_wait_s : float;
  throughput_jps : float;  (** jobs / wall_time *)
}

val summarize : workers:int -> wall_time_s:float -> record list -> summary

(** {2 JSON documents} *)

val json_of_record : record -> Json.t
(** The schema-v{!schema_version} object shape of one record, exactly as
    embedded in {!to_json_string}'s [jobs] array. *)

val record_of_json : Json.t -> record
(** Inverse of {!json_of_record}; tolerates objects from every older
    version (absent [verified] = [""], absent [qa_failures]/[degraded] =
    0, absent [cost]/[lower_bound] = -1).  A non-finite time was written
    as [null] and reads back as [nan].
    @raise Json.Schema_error on malformed input. *)

val schema_version : int
(** Version of the emitted document shape (currently 5: added the
    optimisation fields [cost]/[lower_bound], absent = -1 on read).
    Version 1 documents predate the [schema_version] field. *)

val check_schema_version : (string * Json.t) list -> unit
(** The versioning policy every document of this schema family follows:
    an absent [schema_version] is version 1, anything up to
    {!schema_version} is readable, and newer versions raise
    {!Json.Schema_error} rather than being misread. *)

val to_json_string : summary -> record list -> string
(** One JSON object
    [{"schema_version": N, "summary": {...}, "jobs": [...]}] with that
    fixed field order.  Floats are printed with enough digits to
    round-trip exactly; a non-finite one prints as [null]. *)

val of_json_string : string -> (summary * record list, string) result
(** Inverse of {!to_json_string}; [Error msg] on malformed input.
    Accepts documents without [schema_version] (version 1) as well as any
    version up to {!schema_version}; newer versions are rejected rather
    than misread. *)

(** {2 Pretty-printing} *)

val pp_table : Format.formatter -> record list -> unit
val pp_summary : Format.formatter -> summary -> unit
