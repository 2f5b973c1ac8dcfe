(** Fault-tolerant supervision of a {!Backend}.

    Wraps any backend with per-call deadlines, bounded retries with
    deterministic exponential backoff + jitter, and a circuit breaker, so
    the solver core sees either a good {!Backend.response} or one typed
    {!Backend.failure} it can degrade on.  Everything is modelled, not
    measured: deadlines compare against the response's modelled [time_us],
    backoff waits are added to it rather than slept, jitter comes from a
    private seeded RNG, and the breaker cooldown is counted in fast-failed
    {e calls} rather than wall time — a supervised run is exactly
    reproducible from its seeds.

    Only the deadline and the retry count are set per caller
    ({!policy}); the rest is fixed.  Retry [k] (from 0) waits
    [min 5000 (200 · 2^k)] µs, scaled by a uniform ±10 % jitter.  The
    breaker opens after 5 consecutive failed attempts, fast-fails the next
    7 calls, admits the 8th as a probe, and closes after 1 good probe.

    Failing attempts consume nothing from the caller's RNG (built-in fault
    injectors draw from their own stream), so a retry re-runs the exact
    sample the failed attempt would have produced.

    Not domain-safe: [Solve.run] builds one per solve, so its breaker
    state and {!stats} describe one solve's device calls and replay
    exactly from its seeds. *)

type policy = {
  timeout_us : float;  (** per-call deadline on modelled device time;
                           [infinity] disables it *)
  retries : int;  (** extra attempts after the first (so at most
                      [retries + 1] backend calls per [sample]) *)
}

val default_policy : policy
(** No deadline, 2 retries. *)

type t

type state = [ `Closed | `Open | `Half_open ]

type stats = {
  calls : int;  (** [sample] invocations *)
  successes : int;
  failures : int;  (** failed attempts, including fast-fails *)
  attempts : int;  (** backend calls actually made *)
  retries : int;
  fast_fails : int;  (** calls short-circuited with [Breaker_open] *)
  transitions : int;  (** breaker state changes *)
}

val create : ?obs:Obs.Ctx.t -> ?policy:policy -> ?seed:int -> Backend.t -> t
(** [seed] (default 0) seeds the private jitter RNG.  With a live [obs]
    the supervisor maintains counter [qa_backend_calls_total], labelled
    counters [qa_failures_total{reason=…}], [qa_retries_total] and
    [qa_breaker_transitions_total{to=…}], and gauge [qa_breaker_state]
    (0 closed / 1 open / 2 half-open). *)

val state : t -> state
val stats : t -> stats

val sample : t -> Stats.Rng.t -> Backend.request -> (Backend.response, Backend.failure) result
(** One supervised call.  While the breaker is open the backend is not
    touched and the call fast-fails with [Breaker_open].  A response whose
    modelled time exceeds [timeout_us] is discarded as [Timeout] (deadline
    hit mid-read) and charged the full deadline.  On success, [time_us]
    includes the modelled time wasted on failed attempts and backoff
    waits.  After [retries + 1] failed attempts — or as soon as a failure
    opens the breaker — the last failure is returned and the caller is
    expected to degrade (pure CDCL for that iteration). *)
