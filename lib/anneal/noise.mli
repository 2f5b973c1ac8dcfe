(** NISQ noise model for the simulated annealer (paper §I: environment,
    crosstalk and readout noise on D-Wave 2000Q).

    Two channels, and only these two.  Coefficient noise perturbs the
    programmed fields and couplings (an integrated control-error model of
    environment and crosstalk); readout noise flips measured spins
    independently.  The anneal itself is the same for every noise model:
    a noisy device runs the clean device's schedule
    ({!Sampler.default_schedule}).

    {b Draw-order contract.}  Both [apply_*] functions draw from the
    {e caller's} RNG, in call-site order, with a fixed per-call shape:
    [apply_coeff] makes one Gaussian draw per field then one per coupling,
    in CSR row order of the input; [apply_readout] makes exactly one
    uniform draw per spin.  When the corresponding rate is zero the
    function makes {e zero} draws (and returns its input, shared, for
    [apply_coeff]) — so a noise-free configuration is bit-identical to
    code that never calls these functions at all.  {!Sampler.sample}
    relies on this to keep one documented consumption sequence
    (coeff → init → sweeps → readout); anything layered around a sample
    call — fault injection, latency models — must draw from its own
    private stream ({!Backend.with_faults} does), or seeds stop
    reproducing across backends.  [test_supervisor.ml] pins this contract
    down with a rate-0-wrapper bit-identity test. *)

type t = {
  coeff_sigma : float;  (** Gaussian σ added to each h and J, relative scale *)
  readout_flip : float;  (** independent bit-flip probability at readout *)
}

val noise_free : t
val default_2000q : t
(** The "real-world QA" device of Table II: σ = 0.03 coefficient noise and
    1 % readout flips. *)

val bit_flip_only : float -> t
(** The Table III scalability model: a pure [p] readout bit-flip channel,
    with no coefficient noise. *)

val apply_coeff : t -> Stats.Rng.t -> Sparse_ising.t -> Sparse_ising.t
(** Fresh problem with perturbed coefficients (noise-free input is shared,
    not copied). *)

val apply_readout : t -> Stats.Rng.t -> int array -> int array
(** Possibly-flipped copy of the measured spins. *)
