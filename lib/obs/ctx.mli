(** Observability context: the single handle the whole pipeline threads.

    A context owns a monotonic clock, a span-id generator, a metrics
    registry and a list of {!sink}s.  Every instrumentation point in the
    code base takes a context and does {e nothing} when handed {!null} —
    the guard is one physical-equality check inside [Span] and [Metrics],
    so {!null} is the only off switch: callers make their span and metric
    calls unconditionally.  Sinks are the one way spans leave a context;
    a sink attached for a while (a server's live event tap) is removed
    again with {!detach}.

    Contexts are domain-safe: span emission and metric updates are
    serialised on an internal mutex (instrumented code runs in pool
    workers and portfolio racer domains). *)

(** A completed span, as delivered to sinks. *)
type span_record = {
  id : int;  (** unique per context, starting at 1 *)
  parent : int;  (** id of the enclosing span; 0 = root *)
  name : string;
  start_s : float;  (** seconds since the context epoch *)
  dur_s : float;
      (** usually measured wall-clock; stages whose cost is {e modelled}
          (the annealer) report the modelled duration instead *)
  attrs : (string * string) list;
}

type histogram = {
  bounds : float array;  (** inclusive upper bounds, ascending *)
  counts : int array;  (** length [Array.length bounds + 1]; last = overflow *)
  mutable sum : float;
  mutable observations : int;
}

type metric =
  | Counter of { mutable count : float }
  | Gauge of { mutable value : float }
  | Histogram of histogram

(** Pluggable exporter.  [on_span] is called as each span stops (under the
    context mutex — keep it cheap and never raise); [on_metrics] receives
    the final name-sorted registry snapshot exactly once, from {!close},
    followed by [on_close]. *)
type sink = {
  on_span : span_record -> unit;
  on_metrics : (string * metric) list -> unit;
  on_close : unit -> unit;
}

type t

val null : t
(** The disabled context: every operation on it is a no-op.  This is the
    default everywhere, so un-instrumented callers pay only a physical
    equality test. *)

val is_null : t -> bool
(** [t == null]. *)

val create : ?clock:(unit -> float) -> unit -> t
(** A live context.  [clock] (default [Unix.gettimeofday]) is read through
    a monotonic clamp — reported times never go backwards even if the wall
    clock does; tests inject a fake clock for deterministic traces. *)

val attach : t -> sink -> unit
(** Add an exporter.  No-op on {!null}. *)

val detach : t -> sink -> unit
(** Remove a sink attached earlier, compared by physical equality; an
    unknown sink is ignored.  Once [detach] returns, the sink receives no
    further span, and a {!close} that starts afterwards does not call it
    either.  No-op on {!null}. *)

val close : t -> unit
(** Snapshot the metrics, deliver them to every sink, then run the sinks'
    [on_close].  Idempotent; spans stopped after [close] are dropped. *)

val now : t -> float
(** Monotonic seconds since the context epoch (0.0 on {!null}). *)

val snapshot : t -> (string * metric) list
(** Copy of the registry, sorted by name ([[]] on {!null}). *)

val default_buckets : float array
(** The fixed log-scale histogram bounds: a 1–2–5 decade series from 1e-6
    to 1e8 (45 bounds), suitable for both durations in seconds and
    integer sizes. *)

(**/**)

(* internal plumbing for Span and Metrics — not for direct use *)

val next_span_id : t -> int
val emit_span : t -> span_record -> unit
val counter_add : t -> string -> float -> unit
val gauge_set : t -> string -> float -> unit
val histogram_observe : t -> ?bounds:float array -> string -> float -> unit
