(** Wire protocol messages: the JSON payloads inside {!Codec} frames.

    Every payload is one JSON object with a ["kind"] discriminator and a
    ["schema_version"] field carrying {!Service.Telemetry.schema_version}.
    Versioning follows the telemetry rules exactly: an absent version is
    read as 1, versions up to the current one are accepted (fields added
    since then read as their defaults), and a {e newer} version is
    rejected rather than misread.  Job results travel as the telemetry
    record's own JSON object shape, so a daemon answer is byte-compatible
    with the one-shot CLI's [--json] records. *)

val proto_version : int
(** Version of the message vocabulary (1). *)

val server_name : string
(** ["hyqsat-serve/1"] — announced in {!Welcome}. *)

type job_spec = {
  id : int;  (** client-chosen, echoed back in {!Accepted}/{!Result} *)
  name : string;
  dimacs : string;  (** the instance text: DIMACS, or WDIMACS when [format] says so *)
  format : string option;
      (** how to read [dimacs]: [None] (the wire default) is a plain
          DIMACS decision job; [Some "wcnf"] a WDIMACS optimisation
          (weighted MaxSAT) job; [Some "maxsat"] a DIMACS text solved as
          MaxSAT with every clause soft at weight 1 (what [hyqsat
          --maxsat x.cnf] sends).  Unknown formats are rejected with code
          ["parse"]. *)
  gap_limit : int;
      (** optimisation jobs: accept any answer whose optimality gap is at
          most this (0 = demand a proven optimum); ignored for decision
          jobs.  Encoded only when non-zero, so decision submits are
          byte-identical to older clients'. *)
  certify : bool;
  timeout_s : float option;
  max_iterations : int;
  retries : int;
  seed : int option;  (** [None]: the server derives one from its own seed *)
  priority : int;  (** higher runs sooner; FIFO within a priority *)
  session : string option;
      (** scope for server-side learnt-clause reuse.  Jobs submitted by
          the same client under the same session name share a
          learnt-clause pool: a later job whose formula equals an earlier
          one starts from its learnt clauses.  Reuse never changes an
          answer — the first job of a session behaves exactly like a
          one-shot submit.  [None] (the wire default) keeps every job
          independent. *)
}

val make_job_spec :
  ?name:string ->
  ?format:string ->
  ?gap_limit:int ->
  ?certify:bool ->
  ?timeout_s:float ->
  ?max_iterations:int ->
  ?retries:int ->
  ?seed:int ->
  ?priority:int ->
  ?session:string ->
  id:int ->
  string ->
  job_spec
(** Spec for an instance text with the same defaults a local
    {!Service.Job.make} would use ([name] defaults to ["job-<id>"]; no
    [format] = DIMACS decision job, [gap_limit] = 0).  It checks nothing:
    {!Dispatch.job_of_spec} does, for the daemon and the one-shot CLI. *)

type client_msg =
  | Hello of { client : string; proto : int }
  | Submit of job_spec
  | Subscribe of { events : bool }  (** opt in/out of {!Event} streaming *)
  | Ping of int
  | Bye

type server_msg =
  | Welcome of { server : string; proto : int; schema : int }
  | Accepted of { id : int; position : int; queued : int }
      (** [position] is 1-based within the admission queue at accept time *)
  | Rejected of {
      id : int;
      code : string;  (** {!section-codes} *)
      reason : string;
      retry_after_s : float option;
          (** backpressure hint, present for ["queue_full"] *)
    }
  | Result of {
      id : int;
      record : Service.Telemetry.record;
      model : bool array option;  (** present iff the outcome is Sat *)
    }
  | Event of {
      job : int option;  (** job id when the span carries one *)
      name : string;
      dur_s : float;
      attrs : (string * string) list;
    }
  | Pong of int
  | Drained of { accepted : int; completed : int; cancelled : int }
      (** the server's goodbye during graceful shutdown *)
  | Error_msg of { code : string; reason : string }

(** {2:codes Error codes}

    ["queue_full"] (admission queue at capacity — retry after the hint),
    ["quota"] (per-client in-flight limit reached), ["draining"] (server
    shutting down), ["parse"] (the instance text or the JSON unreadable,
    an unknown [format], or a job field out of range — a negative
    [gap_limit] or [retries], [max_iterations < 1], a [timeout_s] that is
    not finite and positive; the reason names the field), ["bad_frame"]
    (framing violation), ["unsupported"] (schema or proto version newer
    than the server's), ["bad_msg"] (valid JSON, unknown kind). *)

val encode_client : client_msg -> string
val encode_server : server_msg -> string

val decode_client : string -> (client_msg, string) result
val decode_server : string -> (server_msg, string) result
(** [Error reason] on malformed JSON, nesting deeper than
    {!Json.max_depth}, an unknown [kind], or an unsupported (too-new)
    schema version. *)
