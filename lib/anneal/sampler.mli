(** Simulated-annealing Ising sampler (the dwave-neal [19] substitution for
    real QA hardware — see DESIGN.md §2).

    Runs {!Kernel} Metropolis sweeps over a geometric inverse-temperature
    schedule.  One [sample] models one annealing cycle of the physical
    machine: program the coefficients (with {!Noise} coefficient noise),
    anneal [reads] times on one schedule, keep the lowest-energy read, and
    read it out (with {!Noise} readout flips).  Noise acts only through
    those two channels: a noisy device anneals exactly as deep as a clean
    one. *)

type schedule = { sweeps : int; beta_min : float; beta_max : float }

val default_schedule : schedule
(** 32 sweeps, β from 0.1 to 16: the device's one schedule
    ({!Backend.best_of} anneals every call on it, noisy or not).  The
    depth is measured, not assumed: on the hybrid-sat family every depth
    from 1 to 256 sweeps keeps the hybrid loop's iterations per job within
    2% of 256's, because the backend reads the energies of
    {!Machine.run_via}'s host-side repair.  32 is the cheapest depth on
    that curve at which every check the test suite runs on this schedule
    still holds (EXPERIMENTS.md, "Depth of the device anneal", names the
    one that 1, 8 and 16 sweeps each miss).  Other depths are bench code:
    wrap [sample ~schedule] in {!Backend.of_fn}. *)

val sample :
  ?obs:Obs.Ctx.t ->
  ?noise:Noise.t ->
  ?reads:int ->
  ?init:int array ->
  ?domains:int ->
  schedule:schedule ->
  Stats.Rng.t ->
  Sparse_ising.t ->
  int array
(** One annealed spin configuration (±1 entries): the lowest-energy of
    [reads] (default 1; 1 = the paper's single-shot protocol) anneals over
    [schedule], under [noise] (default {!Noise.noise_free}).  [init] seeds
    every read (e.g. chain-coherent spins); default is uniform random per
    read.  A single read anneals on the caller's own generator.  With
    [reads > 1] each read runs on its own RNG stream split off the
    caller's generator ({!Stats.Rng.split_n}), and [domains] (default 1)
    fans the reads over {!Parallel.Pool.shared} in [min domains reads]
    contiguous chunks, so k reads cost ⌈k/domains⌉ reads per hand-off;
    per-domain anneal scratch is reused across chunks and calls
    ([Domain.DLS]).  Chunks cover ascending read ranges reduced with a
    strict minimum, so the result is bit-identical whatever [domains] or
    the pool size says.  Energy ties go to the lowest-numbered read.

    Draw-order contract — the caller's RNG is consumed in exactly this
    call-site order: {!Noise.apply_coeff} (coefficient noise), then init
    spins (when [init] is [None]), then the Metropolis sweeps, then
    {!Noise.apply_readout}.  Zero-rate noise draws nothing, so noise-free
    seeds reproduce results from before noise moved into the sampler.
    Fault injection layered around a sample call must draw from its own
    stream ({!Backend.with_faults} does) to keep this sequence intact.

    With a live [obs] the call adds to the [anneal_sweeps_total] and
    [anneal_accepted_flips_total] counters, and [anneal_reads_total] when
    [reads > 1]; counters are aggregated after the parallel join — worker
    domains never touch [obs].  Raises [Invalid_argument] when [reads < 1]
    or [init] has the wrong length. *)
