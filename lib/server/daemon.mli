(** The [hyqsat serve] event loop: accept framed-JSON clients on a Unix
    and/or loopback TCP socket, admit jobs through {!Dispatch}, stream
    progress events, expose Prometheus metrics over HTTP, and drain
    gracefully when told to stop.

    Single-threaded [Unix.select] loop; solver work happens in the
    dispatcher's worker domains, which wake the loop through a self-pipe
    when a job retires.  Progress streaming taps the {!Obs.Ctx} span
    stream: clients that sent [Subscribe {events = true}] receive an
    {!Protocol.server_msg.Event} per ["job"]/["attempt"]/["race"]/
    ["member"] span, dropped (and counted in [events_dropped_total])
    rather than buffered beyond 256 KiB of unsent output.  A connection
    with more than 1 MiB of unsent replies is not read until its client
    drains them, so a client that never reads stalls in its own writes
    instead of growing the daemon's buffers.  Frames are capped at
    {!Codec.default_max_frame}, and a [/metrics] request at 8 KiB.

    Shutdown contract: when [stop] flips (SIGTERM/SIGINT in the CLI),
    the daemon closes its listeners, rejects queued jobs as
    [unknown:cancelled] exactly once, gives running jobs
    [dispatch.grace_s] seconds before cancelling them cooperatively,
    sends every client a final [Drained] message, flushes telemetry, and
    returns the {!Drain.report}.  Whatever way it exits, [run] first frees
    everything it opened, in reverse order (DESIGN.md §5h). *)

type config = {
  unix_socket : string option;
      (** path; a stale socket there is replaced, one that still accepts
          connections is refused with [EADDRINUSE] *)
  tcp_port : int option;  (** loopback only; [Some 0] = ephemeral *)
  metrics_port : int option;  (** loopback HTTP [/metrics]; [Some 0] = ephemeral *)
  dispatch : Dispatch.config;
}

val default_config : config
(** No listeners configured (callers must set at least one) and
    {!Dispatch.default_config}. *)

type ready = {
  r_unix_socket : string option;
  r_tcp_port : int option;  (** actual port, resolved when asked for 0 *)
  r_metrics_port : int option;
}

val run :
  ?obs:Obs.Ctx.t ->
  ?stop:bool Atomic.t ->
  ?on_ready:(ready -> unit) ->
  config ->
  Drain.report
(** Serve until [stop] is true (checked continuously; default: a flag
    nobody sets), then drain and return the report.  [on_ready] fires
    once every listener is bound — tests use it to learn ephemeral
    ports and to order client connects after the bind.

    A listener that cannot be set up (a live daemon answers on its
    socket path, its stale path cannot be removed, or [bind]/[listen]
    fails) raises [Unix.Unix_error (e, fn, addr)] whose [addr] is the
    socket path or ["127.0.0.1:PORT"]; that error, or one [on_ready]
    raises, is re-raised after everything [run] opened has been freed.
    The socket file is removed on exit only if this run bound it.
    @raise Invalid_argument if no listener is configured. *)
