(** Incremental-field Metropolis kernel — the annealer's hot loop.

    Maintains the invariant [field i = h_i + Σ_k J_ik·spins.(k)] across
    flips, so an attempted flip reads its energy delta in O(1) and only an
    {e accepted} flip walks the CSR neighbourhood to update fields.  A
    precomputed acceptance-threshold table (exp values over a β·δ grid with
    a conservative margin) keeps [exp] out of the inner loop: a uniform
    draw outside the bracket decides immediately, and only draws inside a
    table cell fall back to the exact test.

    The kernel is decision-for-decision and RNG-draw-for-RNG-draw
    equivalent to the field-recomputing reference sweep kept in the
    test/bench-only [oracle] library: downhill moves consume no
    randomness, uphill moves consume exactly one draw, and the fast paths
    can never disagree with the exact Metropolis test.  Field values are
    accumulated incrementally, so they may differ from a fresh summation
    by floating-point rounding; both loops classify deltas at or below
    {!tie_eps} as downhill so a mathematically-zero flip whose rounding
    residue straddles zero cannot desynchronise the two RNG streams.

    A sweep allocates nothing per attempted flip: the uniform each uphill
    attempt draws is produced unboxed inside the kernel, consuming the
    generator exactly as [Stats.Rng.float rng 1.0] would.

    {!Sampler.sample} runs every sweep through this kernel. *)

type t

val tie_eps : float
(** Deltas at or below this are classified downhill (accepted draw-free)
    by {e both} kernels — the guard that keeps degenerate zero-delta flips
    from desynchronising their RNG streams when rounding leaves a ±1 ulp
    residue in one summation order but not the other. *)

val init : Sparse_ising.t -> int array -> t
(** [init ising spins] builds the field array for the given configuration.
    [spins] is {e borrowed and mutated in place} by {!sweep} — callers
    wanting an untouched copy must copy first.
    @raise Invalid_argument if [Array.length spins <> ising.n]. *)

val sweep : t -> beta:float -> Stats.Rng.t -> unit
(** One Metropolis sweep over all spins at inverse temperature [beta]. *)

val flip : t -> int -> unit
(** Unconditionally flip spin [i] and push the field change onto its
    neighbours — the accepted-move primitive, exposed so tests can stress
    the field invariant directly.
    @raise Invalid_argument if [i] is not a spin index. *)

val spins : t -> int array
(** The (live, caller-owned) spin array. *)

val delta : t -> int -> float
(** Current incremental flip delta of spin [i] — the materialised
    [-2·s_i·field i] the sweep's Metropolis test reads. *)

val field : t -> int -> float
(** Current incremental local field of spin [i] — matches
    {!Sparse_ising.local_field} up to accumulated rounding. *)

val accepted : t -> int
(** Total flips accepted since {!init}. *)
