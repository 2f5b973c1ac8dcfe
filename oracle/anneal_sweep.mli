(** Reference Metropolis sweep: the differential oracle for
    {!Anneal.Kernel}.

    Recomputes the O(deg) local field on every attempted flip and calls
    [exp] on every uphill move.  It consumes the RNG exactly as the
    incremental kernel does (downhill moves draw nothing, uphill moves draw
    once, deltas at or below {!Anneal.Kernel.tie_eps} count as downhill),
    so for identical seeds it returns identical spins. *)

val sample :
  ?schedule:Anneal.Sampler.schedule -> Stats.Rng.t -> Anneal.Sparse_ising.t -> int array
(** One noise-free read from uniform random initial spins, annealed over
    the geometric β schedule — the oracle for [Anneal.Sampler.sample]
    with noise-free, single-read params.  [schedule] defaults to
    {!Anneal.Sampler.default_schedule}. *)
