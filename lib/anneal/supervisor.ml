type policy = { timeout_us : float; retries : int }

let default_policy = { timeout_us = infinity; retries = 2 }

(* backoff: 200 us before retry 1, doubling, capped at 5 ms, ±10 % jitter *)
let backoff_base_us = 200.0
let backoff_mult = 2.0
let backoff_max_us = 5_000.0
let backoff_jitter = 0.1

(* breaker: opens after 5 consecutive failures; the 8th call after that is
   the probe, and one good probe closes it *)
let failures_to_open = 5
let cooldown_calls = 8

type breaker =
  | Closed of int  (* consecutive failures so far *)
  | Open of int  (* fast-fails remaining before a probe is allowed *)
  | Half_open  (* admitting calls; the next success closes it *)

type state = [ `Closed | `Open | `Half_open ]

let state_of_breaker = function
  | Closed _ -> `Closed
  | Open _ -> `Open
  | Half_open -> `Half_open

let state_label = function `Closed -> "closed" | `Open -> "open" | `Half_open -> "half_open"
let state_gauge = function `Closed -> 0.0 | `Open -> 1.0 | `Half_open -> 2.0

type stats = {
  calls : int;
  successes : int;
  failures : int;
  attempts : int;
  retries : int;
  fast_fails : int;
  transitions : int;
}

let zero_stats =
  { calls = 0; successes = 0; failures = 0; attempts = 0; retries = 0; fast_fails = 0; transitions = 0 }

type t = {
  backend : Backend.t;
  policy : policy;
  obs : Obs.Ctx.t;
  rng : Stats.Rng.t;  (* private: backoff jitter only *)
  mutable breaker : breaker;
  mutable stats : stats;
}

let create ?(obs = Obs.Ctx.null) ?(policy = default_policy) ?(seed = 0) backend =
  let t =
    {
      backend;
      policy;
      obs;
      rng = Stats.Rng.create ~seed;
      breaker = Closed 0;
      stats = zero_stats;
    }
  in
  Obs.Metrics.gauge obs "qa_breaker_state" (state_gauge `Closed);
  (* pre-register the unlabelled counters so exports show explicit zeros *)
  Obs.Metrics.incr ~by:0.0 obs "qa_backend_calls_total";
  Obs.Metrics.incr ~by:0.0 obs "qa_retries_total";
  t

let stats t = t.stats
let state t = state_of_breaker t.breaker

let transition t next =
  t.breaker <- next;
  t.stats <- { t.stats with transitions = t.stats.transitions + 1 };
  let s = state_of_breaker next in
  Obs.Metrics.incr t.obs
    (Obs.Metrics.labelled "qa_breaker_transitions_total" [ ("to", state_label s) ]);
  Obs.Metrics.gauge t.obs "qa_breaker_state" (state_gauge s)

let note_success t =
  match t.breaker with
  | Closed 0 -> ()
  | Closed _ -> t.breaker <- Closed 0 (* same state: not a transition *)
  | Half_open -> transition t (Closed 0)
  | Open _ -> () (* unreachable: Open never reaches the backend *)

let note_failure t =
  match t.breaker with
  | Closed n ->
      let n = n + 1 in
      if n >= failures_to_open then transition t (Open cooldown_calls)
      else t.breaker <- Closed n
  | Half_open -> transition t (Open cooldown_calls)
  | Open _ -> ()

(* Deterministic exponential backoff with jitter drawn from the
   supervisor's private RNG — modelled microseconds, never slept. *)
let backoff_us t ~attempt =
  let base =
    Float.min backoff_max_us (backoff_base_us *. (backoff_mult ** float_of_int attempt))
  in
  base *. (1.0 +. (backoff_jitter *. ((2.0 *. Stats.Rng.float t.rng 1.0) -. 1.0)))

let count_failure t reason =
  t.stats <- { t.stats with failures = t.stats.failures + 1 };
  Obs.Metrics.incr t.obs
    (Obs.Metrics.labelled "qa_failures_total" [ ("reason", Backend.failure_label reason) ])

(* One supervised call.  The caller's [rng] is only consumed by successful
   or failing *backend* attempts — and a failing attempt consumes nothing
   (fault injectors draw from their own stream), so retries are exact
   reruns.  Breaker cooldown is counted in fast-failed calls rather than
   modelled time: time only advances on calls, so a wall-clock cooldown
   would deadlock a deterministic replay. *)
let sample t rng (req : Backend.request) =
  t.stats <- { t.stats with calls = t.stats.calls + 1 };
  Obs.Metrics.incr t.obs "qa_backend_calls_total";
  let admit =
    match t.breaker with
    | Closed _ -> true
    | Half_open -> true
    | Open remaining ->
        if remaining > 1 then begin
          t.breaker <- Open (remaining - 1);
          false
        end
        else begin
          (* cooldown spent: let this call through as the probe *)
          transition t Half_open;
          true
        end
  in
  if not admit then begin
    t.stats <- { t.stats with fast_fails = t.stats.fast_fails + 1 };
    count_failure t Backend.Breaker_open;
    Error Backend.Breaker_open
  end
  else begin
    (* wasted_us: modelled time burnt on failed attempts + backoff waits,
       folded into the successful response's [time_us] *)
    let rec attempt_loop ~attempt ~wasted_us =
      t.stats <- { t.stats with attempts = t.stats.attempts + 1 };
      let outcome =
        match Backend.sample ~obs:t.obs t.backend rng req with
        | Ok resp when resp.Backend.time_us > t.policy.timeout_us ->
            (* the deadline fell mid-read: the device finished but past the
               budget, so the result is discarded and the call charged the
               full timeout *)
            Error (Backend.Timeout, t.policy.timeout_us)
        | Ok resp -> Ok resp
        | Error f -> Error (f, 0.0)
      in
      match outcome with
      | Ok resp ->
          note_success t;
          t.stats <- { t.stats with successes = t.stats.successes + 1 };
          Ok { resp with Backend.time_us = resp.Backend.time_us +. wasted_us }
      | Error (reason, charged_us) ->
          count_failure t reason;
          note_failure t;
          let breaker_open = match t.breaker with Open _ -> true | _ -> false in
          if attempt >= t.policy.retries || breaker_open then Error reason
          else begin
            t.stats <- { t.stats with retries = t.stats.retries + 1 };
            Obs.Metrics.incr t.obs "qa_retries_total";
            let wait = backoff_us t ~attempt in
            attempt_loop ~attempt:(attempt + 1) ~wasted_us:(wasted_us +. charged_us +. wait)
          end
    in
    attempt_loop ~attempt:0 ~wasted_us:0.0
  end
