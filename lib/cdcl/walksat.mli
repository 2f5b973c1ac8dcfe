(** Incremental weighted local search: WalkSAT and a weighted minimiser.

    The classical incomplete baseline (and the flavour of warm-up helper the
    related-work solvers [12] bolt onto CDCL): pick a falsified clause,
    flip one of its variables.  Cannot prove unsatisfiability.

    Both walks share one kernel.  Its state is a per-variable positive and
    negative occurrence array, a per-clause true-literal count, the running
    weighted cost of the falsified clauses, and a Fenwick tree over the
    falsified flags.  Building it costs O(total literals) per walk (and per
    restart); a flip costs O(occurrences of the flipped variable · log m),
    a break count O(occurrences), and picking the r-th falsified clause in
    index order O(log m) — no step rescans the formula. *)

type stats = { flips : int; restarts_used : int }

val solve :
  ?max_flips:int ->
  ?restarts:int ->
  ?noise:float ->
  ?should_stop:(unit -> bool) ->
  Stats.Rng.t ->
  Sat.Cnf.t ->
  bool array option * stats
(** [solve rng f] is [Some model] if local search finds one within
    [restarts] × [max_flips] flips ([noise] = random-walk probability,
    default 0.5); [None] is inconclusive.  Each flip takes the r-th
    falsified clause in {e ascending} index order (r uniform), then with
    probability [noise] a uniform variable of it, otherwise the first of
    its variables with minimal break count.  A formula with an empty
    clause returns [None] at once, with zero flips and restarts.
    [should_stop] is polled every 64 flips and before each restart; when
    it returns [true] the search gives up immediately with [None]
    (portfolio cancellation). *)

val minimise :
  max_flips:int ->
  ?should_stop:(unit -> bool) ->
  Stats.Rng.t ->
  num_vars:int ->
  (int * Sat.Clause.t) array ->
  int * bool array
(** [minimise ~max_flips rng ~num_vars clauses] walks on the weighted
    [(weight, clause)] list from a uniform random assignment and returns
    the cheapest configuration it visited with its cost (the summed weight
    of the clauses it falsifies).  Each flip takes the r-th falsified
    clause in {e descending} index order (r uniform) and flips a uniform
    variable of it; picking an empty clause spends the flip without
    moving.  The walk ends after [max_flips] flips, at cost 0, or when
    [should_stop] (polled before every flip) returns [true].  The model
    has [max num_vars 1] entries. *)
