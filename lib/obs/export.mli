(** Exporters: ready-made {!Ctx.sink}s.

    Each constructor takes output primitives rather than file paths so
    tests can capture into buffers; [file_jsonl] is the convenience
    wrapper the CLI uses. *)

val jsonl : write:(string -> unit) -> Ctx.sink
(** JSON-lines trace: one [{"type":"span",...}] object per stopped span,
    then one [{"type":"counter"|"gauge"|"histogram",...}] object per
    metric at close.  Every line ends with ['\n']. *)

val file_jsonl : string -> Ctx.sink
(** [jsonl] writing to a fresh file at the given path; the file is closed
    by the sink's [on_close]. *)

val console_tree : Format.formatter -> Ctx.sink
(** Human-readable summary at close: spans aggregated by name path into a
    box-drawing tree (call count and total duration per node), followed by
    the metrics. *)

val prometheus_string : (string * Ctx.metric) list -> string
(** The Prometheus text exposition format of a metrics snapshot (the
    CLI's and the daemon's [/metrics] rendering, and golden tests). *)
