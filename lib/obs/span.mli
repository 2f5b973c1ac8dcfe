(** Spans: named, nested, timed regions of the pipeline.

    A span started on {!Ctx.null} is the constant {!none} — starting and
    stopping it allocates nothing, so instrumented code needs no
    [if enabled] branches of its own. *)

type t

val none : t
(** The disabled span.  [start Ctx.null _ == none], and [none] is the
    default parent everywhere (meaning "root"). *)

val start :
  Ctx.t -> ?parent:t -> ?attrs:(string * string) list -> string -> t
(** Open a span now.  It is delivered to sinks only when stopped. *)

val stop : ?dur_s:float -> t -> unit
(** Close the span and emit its record.  [dur_s] overrides the measured
    wall-clock duration — used for stages whose reported cost is modelled
    (annealer device time) or pre-measured by the caller.  Idempotent. *)

val add_attr : t -> string -> string -> unit
(** Attach a key/value to a live span (no-op after [stop]). *)

val record :
  Ctx.t ->
  ?parent:t ->
  ?attrs:(string * string) list ->
  dur_s:float ->
  string ->
  unit
(** Emit a completed span in one shot, ending now and lasting [dur_s].
    For stages that already measured themselves. *)

(**/**)

val id : t -> int
(** Span id for parent linking (0 for {!none}). *)
