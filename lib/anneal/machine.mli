(** The quantum-annealer facade: program an embedded problem, run one
    annealing cycle through a device call, read out a logical assignment
    and its energy.

    {!run_via} is the one entry point.  It is the component a real
    deployment would replace with the D-Wave API; everything above it
    (HyQSAT frontend/backend, the MaxSAT incumbent, calibration) is
    agnostic to whether the sample came from hardware or from the
    simulator, and to whether the device call succeeded at all. *)

type job = {
  embedding : Embed.Embedding.t;
  objective : Qubo.Pbq.t;
      (** logical objective over problem-graph nodes, {e unnormalised}; the
          machine normalises to hardware range internally (Equation 6) *)
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
(** An objective variable is no node of the placement, or an objective edge
    has no registered coupler.  The machine searches no hardware graph: it
    programs the wiring {!Embed.Embedding.make} derived. *)

val run_via :
  ?obs:Obs.Ctx.t ->
  ?noise:Noise.t ->
  ?reads:int ->
  ?domains:int ->
  sample:(Stats.Rng.t -> Backend.request -> (Backend.response, Backend.failure) result) ->
  Stats.Rng.t ->
  job ->
  (outcome, Backend.failure) result
(** One annealing cycle through an arbitrary device call — pass
    [Supervisor.sample sup] for a supervised backend, or
    [Backend.sample b] for a bare one.  The machine fills the placement's
    wiring (chains, physical index, registered and chain couplers) with
    the normalised objective's coefficients, draws chain-coherent initial
    spins (before the device call, so a failing call always consumes the
    same caller-RNG prefix as a succeeding one), issues exactly one
    [sample], and on [Ok] unembeds by majority vote.  [Error f] is
    returned untouched for the caller to degrade on; callers of the
    infallible simulator skip it.

    [reads] (default 1) requests the multi-sample device mode (best of
    [reads] anneals, fanned over [domains] on the process-wide
    {!Parallel.Pool.shared} pool when the backend supports it).  [noise]
    (default noise-free) rides in the request; the device applies it as
    coefficient noise before the anneal and readout flips after it, and
    anneals on its own schedule, the same for every noise model.

    Every [Ok] sample then gets the machine-side repair — a logical-level
    anneal plus greedy descent — {e host-side}, never through the backend;
    it cannot turn an unsatisfiable clause set's energy to zero, only
    remove the residue that noise, chain breaks and a finite anneal leave.
    The repair's anneal runs [max 8 (spins / 2)] sweeps over the
    objective's logical spins (one per variable of [job.objective]), from
    β 0.3 to 12; that depth is the cheapest that keeps the hybrid loop's
    iteration counts (EXPERIMENTS.md, "Depth of the post-process anneal"),
    and the greedy descent after it makes at most 8 passes.  With a live
    [obs] the call adds chain breaks to [anneal_chain_breaks_total] and
    records the response's modelled [time_us] into the [anneal_time_us]
    histogram.  Chains couple at strength 2.0 (relative to the normalised
    coefficient range); the device call is timed as a D-Wave 2000Q
    ({!Timing.d_wave_2000q}). *)
