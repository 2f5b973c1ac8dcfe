(** Simulated-annealing Ising sampler (the dwave-neal [19] substitution for
    real QA hardware — see DESIGN.md §2).

    Runs {!Kernel} Metropolis sweeps over a geometric inverse-temperature
    schedule.  One [sample] models one annealing cycle of the physical
    machine: program (with control noise), anneal [reads] times, read out
    (with readout noise).  All knobs live in one {!params} record so every
    {!Backend} implementation shares a single request shape. *)

type schedule = { sweeps : int; beta_min : float; beta_max : float }

val default_schedule : schedule
(** 256 sweeps, β from 0.1 to 16 — enough to reach ground states of
    queue-sized problems with high probability. *)

val quick_schedule : schedule
(** 96 sweeps: a deliberately shallow anneal that leaves residual thermal
    excitation, used to emulate a noisy single-shot device. *)

type params = {
  schedule : schedule;
  noise : Noise.t;  (** applied inside [sample]: coefficients before the
                        anneal, readout flips after *)
  reads : int;  (** independent anneals per call, best-of by energy;
                    1 = the paper's single-shot protocol *)
}
(** One device-call request.  This record replaced the growing
    optional-argument list of [sample] so backends ({!Backend.S}) and the
    machine facade exchange a single value. *)

val default_params : params
(** [default_schedule], {!Noise.noise_free}, 1 read. *)

val make_params :
  ?base:params ->
  ?schedule:schedule ->
  ?noise:Noise.t ->
  ?reads:int ->
  unit ->
  params
(** Labelled constructor; every field defaults to [base] (itself
    defaulting to {!default_params}), so adding a field never breaks
    callers. *)

val sample :
  ?obs:Obs.Ctx.t ->
  ?params:params ->
  ?init:int array ->
  ?pool:Parallel.Tasks.t ->
  ?domains:int ->
  Stats.Rng.t ->
  Sparse_ising.t ->
  int array
(** One annealed spin configuration (±1 entries).  [init] seeds every read
    (e.g. chain-coherent spins); default is uniform random per read.
    [domains] (default 1) fans [params.reads] independent anneals over a
    persistent pool — [pool] if given, else the process-wide
    {!Parallel.Tasks.shared} — in [min domains reads] contiguous chunks,
    so k reads cost ⌈k/domains⌉ reads per hand-off instead of a spawn and
    a queue round-trip each; per-domain anneal scratch is reused across
    chunks and calls ({!Parallel.Local}).  Each read runs on its own RNG
    stream split off the caller's generator ({!Stats.Rng.split_n}), and
    chunks cover ascending read ranges reduced with a strict minimum, so
    the result is bit-identical whatever [domains] or the pool size says.
    Energy ties go to the lowest-numbered read.

    Draw-order contract — the caller's RNG is consumed in exactly this
    call-site order: {!Noise.apply_coeff} (programming noise), then init
    spins (when [init] is [None]), then the Metropolis sweeps, then
    {!Noise.apply_readout}.  Zero-rate noise draws nothing, so noise-free
    seeds reproduce results from before noise moved into the sampler.
    Fault injection layered around a sample call must draw from its own
    stream ({!Backend.with_faults} does) to keep this sequence intact.

    With a live [obs] the call adds to the [anneal_sweeps_total] and
    [anneal_accepted_flips_total] counters, and [anneal_reads_total] when
    [params.reads > 1]; counters are aggregated after the parallel join —
    worker domains never touch [obs]. *)
