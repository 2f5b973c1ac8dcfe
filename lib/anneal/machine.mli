(** The quantum-annealer facade: program an embedded problem, run one
    annealing cycle through a {!Backend}, read out a logical assignment and
    its energy.

    This is the component a real deployment would replace with the D-Wave
    API; everything above it (HyQSAT frontend/backend) is agnostic to
    whether the sample came from hardware or from the simulator, and — via
    {!run_via} — to whether the device call succeeded at all. *)

type job = {
  embedding : Embed.Embedding.t;
  objective : Qubo.Pbq.t;
      (** logical objective over problem-graph nodes, {e unnormalised}; the
          machine normalises to hardware range internally (Equation 6) *)
  edges : (int * int) list;  (** problem edges the embedding realises *)
}

type outcome = {
  assignment : (int * bool) list;  (** node → unembedded value *)
  energy : float;
      (** the unnormalised logical objective evaluated at [assignment] — the
          "energy" the HyQSAT backend interprets *)
  physical_energy : float;
      (** the returned spins' energy on the clean (pre-noise) physical
          Ising, as reported by the backend *)
  chain_breaks : int;  (** chains whose qubits disagreed at readout *)
  time_us : float;
      (** modelled wall-clock of the device call, including any supervisor
          retries/backoff when one is in the path *)
}

exception Unembedded_term of string
(** An objective term touches a node without a chain or an edge without a
    realisable coupler. *)

val run_via :
  ?obs:Obs.Ctx.t ->
  ?noise:Noise.t ->
  ?postprocess:bool ->
  ?reads:int ->
  ?domains:int ->
  sample:(Stats.Rng.t -> Backend.request -> (Backend.response, Backend.failure) result) ->
  Stats.Rng.t ->
  job ->
  (outcome, Backend.failure) result
(** One annealing cycle through an arbitrary device call — pass
    [Supervisor.sample sup] for a supervised backend, or
    [Backend.sample b] for a bare one.  The machine builds the physical
    Ising, draws chain-coherent initial spins (before the device call, so
    a failing call always consumes the same caller-RNG prefix as a
    succeeding one), issues exactly one [sample], and on [Ok] unembeds by
    majority vote.  [Error f] is returned untouched for the caller to
    degrade on.

    [reads] (default 1) requests the multi-sample device mode (best of
    [reads] anneals, fanned over [domains] on the process-wide
    {!Parallel.Pool.shared} pool when the backend supports it); [noise]
    rides inside the request's {!Sampler.params}.  [postprocess] (default
    [true]) runs the machine-side sample repair — a logical-level
    anneal plus greedy descent — {e host-side}, never through the backend;
    it cannot turn an unsatisfiable clause set's energy to zero, only
    remove thermal/chain-break residue.  With a live [obs] the call adds
    chain breaks to [anneal_chain_breaks_total] and records the response's
    modelled [time_us] into the [anneal_time_us] histogram.
    Defaults: noise-free.  The schedule is {!Sampler.default_schedule}, or
    {!Sampler.quick_schedule} when the noise model says so; chains couple
    at strength 2.0 (relative to the normalised coefficient range); the
    device call is timed as a D-Wave 2000Q ({!Timing.d_wave_2000q}). *)

val run :
  ?obs:Obs.Ctx.t ->
  ?noise:Noise.t ->
  ?postprocess:bool ->
  ?reads:int ->
  ?domains:int ->
  Stats.Rng.t ->
  job ->
  outcome
(** {!run_via} over the infallible {!Backend.best_of} simulator — the
    historical direct-call entry, kept for callers (calibration, MaxSAT)
    that never need fault handling. *)
