(** Clause-queue generation (paper §IV-A, Fig. 6).

    The queue head is drawn at random from the clauses with top-30 activity
    scores (conflict frequency, maintained by the CDCL solver); the rest of
    the queue is a breadth-first traversal over shared variables, which
    maximises variable locality for the embedder.  The traversal stops at
    the hardware-capacity threshold.  Neither mode ever queues a
    tautology ({!Sat.Clause.is_tautology}): any assignment satisfies one,
    and the CDCL solver skips it too, so it would only spend qubits. *)

val generate :
  ?top_k:int ->
  ?var_budget:int ->
  Stats.Rng.t ->
  Sat.Cnf.t ->
  activity:(int -> float) ->
  limit:int ->
  int list
(** [generate rng f ~activity ~limit] is an ordered list of clause indices,
    at most [limit] long.  [top_k] defaults to the paper's 30.

    [var_budget] bounds the distinct variables in the queue (the hardware's
    vertical-line count): a clause that would push the variable set past the
    budget is skipped — but reconsidered on later encounters, since its
    missing variables may have joined the set through other clauses.  The
    embedder then places only a prefix of the queue: ~45–53 clauses on the
    16×16 graph, not the paper's ≈170.  Tautologies are neither head
    candidates nor traversed: the head is one draw among the top
    [min top_k c] of the [c] other clauses.  Returns [[]], drawing
    nothing, when every clause is a tautology. *)

val generate_random : Stats.Rng.t -> Sat.Cnf.t -> limit:int -> int list
(** The Fig. 14 ablation baseline: a uniformly random clause subset (no
    activity, no locality), at most [limit] long.  It shuffles every clause
    index, drawing exactly what a [limit]-of-[m] sample would, and keeps
    the first [limit] that are no tautology. *)
