(** Pluggable annealer backends.

    HyQSAT treats the annealer as a remote, noisy accelerator.  This module
    makes that boundary explicit: a backend takes one {!request} (an Ising
    problem, the device's noise and a read count) and either returns a
    {!response} or fails with a typed {!failure}.  The solver core never
    calls a sampler directly — it goes through a {!t}, which each solve
    wraps in its own {!Supervisor} for deadlines, retries and a circuit
    breaker.

    All built-in backends are deterministic: spins are a pure function of
    the caller's RNG state, failures of the fault profile's private
    stream.  No wall-clock randomness anywhere. *)

type request = {
  ising : Sparse_ising.t;  (** the physical problem, noise-free *)
  noise : Noise.t;  (** coefficient and readout noise the device applies *)
  reads : int;
      (** anneals per call, best-of by energy; 1 = the paper's single-shot
          protocol *)
  init : int array option;  (** per-read initial spins (chain-coherent) *)
  domains : int;  (** parallelism hint; result-invariant *)
}

type response = {
  spins : int array;  (** annealed physical spins, ±1 entries *)
  energy : float;  (** energy of [spins] on the {e clean} request Ising *)
  time_us : float;  (** modelled device wall-clock for the call *)
}

type failure =
  | Timeout  (** the call's modelled time exceeded the deadline *)
  | Unavailable  (** device rejected or dropped the call *)
  | Readout_corrupt  (** readout failed integrity checks *)
  | Chain_break_storm  (** too many broken chains to unembed *)
  | Breaker_open  (** supervisor fast-fail; never raised by a device *)

val failure_label : failure -> string
(** Stable lower-snake label, used as the [reason] metric label. *)

type capabilities = { fallible : bool  (** can return [Error _] *) }

module type S = sig
  val name : string
  val capabilities : capabilities
  val sample : ?obs:Obs.Ctx.t -> Stats.Rng.t -> request -> (response, failure) result
end

type t = (module S)

val name : t -> string
val capabilities : t -> capabilities
val sample : ?obs:Obs.Ctx.t -> t -> Stats.Rng.t -> request -> (response, failure) result

val of_fn :
  name:string ->
  ?capabilities:capabilities ->
  (?obs:Obs.Ctx.t -> Stats.Rng.t -> request -> (response, failure) result) ->
  t
(** Wrap a function as a backend — the test suite scripts failing devices
    with this.  Default capabilities: fallible. *)

val model_time_us : request -> float
(** Modelled device time of one call, timed as a D-Wave 2000Q
    ({!Timing.d_wave_2000q}): [single_sample_us] for one read,
    [multi_sample_us] otherwise.  The
    supervisor compares this against deadlines. *)

(** {1 The simulator} *)

val best_of : t
(** The dwave-neal-style simulated-annealing device: {!Sampler.sample}
    on {!Sampler.default_schedule} with the request's noise, fanning
    [request.reads] across [request.domains].  The device owns its
    schedule: a request cannot choose one.  Infallible; the spins are a
    pure function of the caller's RNG state, whatever [request.domains]
    says. *)

(** {1 Fault injection} *)

type fault_profile = {
  fail_rate : float;  (** per-call failure probability in [0,1] *)
  fault_seed : int;  (** seed of the injector's private RNG *)
}

val default_faults : fault_profile
(** Rate 0 — wrapping with this profile is a no-op. *)

val with_faults : fault_profile -> t -> t
(** [with_faults p b] decides each call's failure from a private RNG
    seeded with [p.fault_seed], so the caller's stream is untouched: a
    zero-rate wrapper is bit-identical to [b], and a failed call leaves
    the caller's RNG where it was — a retry reproduces what the original
    call would have returned.  A failing call is one of the four device
    failures, equally likely (never [Breaker_open]).  The private RNG sits
    behind its own mutex, so one wrapper may serve concurrent callers; the
    inner backend runs outside that lock. *)

val simulator : fault_profile -> t
(** {!best_of}, wrapped in {!with_faults} only when the profile injects
    failures — the backend every job policy and CLI run builds. *)
