(** Minimal HTTP/1.0 responder for the scrape endpoint.

    Just enough HTTP for [curl] and a Prometheus scraper: parse the
    request line out of whatever bytes arrived, answer [GET /metrics]
    with the deterministic text exposition of the live {!Obs.Ctx}
    snapshot, [GET /healthz] with [ok], anything else with 404/405/400.
    Every response carries [Connection: close] — the daemon writes it
    and closes, no keep-alive state. *)

val on_read : metrics:(unit -> string) -> Buffer.t -> Bytes.t -> int -> string option
(** [on_read ~metrics request bytes n] appends the first [n] [bytes] of a
    read to the buffered [request], which keeps at most 8 KiB, and returns
    the full HTTP response once the request is complete: its
    end-of-headers blank line arrived (GET requests have no body).  A
    request that fills 8 KiB without one is answered [431].  Each call
    scans only its own bytes, so a request is scanned once in total.
    [metrics] is called only for [GET /metrics] — pass a closure over
    [Obs.Export.prometheus_string (Obs.Ctx.snapshot obs)]. *)
