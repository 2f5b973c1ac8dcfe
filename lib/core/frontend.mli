(** HyQSAT frontend: from CDCL state to a programmed QA job (paper §IV).

    Pipeline per warm-up iteration: clause-queue generation (activity + BFS)
    → QUBO encoding of the queue (Equations 3–5) → coefficient adjustment
    (§IV-C) → linear-time hardware embedding (§IV-B). *)

type queue_mode = Activity_bfs | Random
(** [Random] is the Fig. 14 ablation. *)

type prepared = {
  job : Anneal.Machine.job;
  clause_indices : int list;
      (** original clause indices actually embedded; never a tautology *)
  vars_involved : int list;  (** original variables in the embedded prefix *)
  all_clauses_embedded : bool;
      (** the job covers every clause of the formula but its tautologies,
          which any assignment satisfies — strategy 1 becomes possible *)
  time_s : float;  (** measured frontend wall-clock time, embedding included *)
  embed_time_s : float;
      (** measured wall-clock time of the hardware-embedding step alone (a
          portion of [time_s]) — the paper's Fig. 10 separates it from
          queue generation + encoding *)
}

type cache
(** Embedding cache.  Keys are the {e canonical structure} of a clause
    queue — the per-clause variable lists in queue order plus the variable
    universe size — which fully determines the Chimera placement on a fixed
    graph (literal signs only shape QUBO coefficients, re-encoded every
    call).  Warm-up iterations revisiting the same conflict-hot clauses
    reuse the placement instead of re-running place/route. *)

val create_cache : Chimera.Graph.t -> cache
(** A cache bound to one hardware graph ([prepare] rejects any other).  It
    retains at most 64 placements; overflow drops the whole table.  Not
    domain-safe — use one cache per solving domain. *)

val cache_stats : cache -> int * int
(** [(hits, misses)] since creation. *)

val prepare :
  ?obs:Obs.Ctx.t ->
  ?cache:cache ->
  ?queue_mode:queue_mode ->
  ?adjust:bool ->
  ?weights:int array ->
  Stats.Rng.t ->
  Chimera.Graph.t ->
  Sat.Cnf.t ->
  activity:(int -> float) ->
  prepared option
(** [None] when nothing could be embedded (e.g. empty formula).  [adjust]
    (default [true]) applies the noise-optimising coefficient adjustment.
    [weights] (one per clause of [f], each [>= 1]) switches the job to
    weighted mode: after adjustment, each embedded clause's sub-penalties
    are scaled by its weight (normalised to the heaviest), so annealer
    samples minimise weighted violation cost — clauses outside the
    embedded prefix keep their weights out of the job, exactly as the
    unweighted prefix logic drops them.
    With a [cache], a structurally repeated queue reuses its embedding
    (the cached {!Embed.Embedding.t} is shared, not copied — treat
    embeddings as immutable); with a live [obs] the lookup bumps
    [embed_cache_hits_total] / [embed_cache_misses_total]. *)
