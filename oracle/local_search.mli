(** Rescanning local search: the differential oracle for {!Cdcl.Walksat}.

    These are the list-based loops the incremental kernel replaced.  Every
    flip rebuilds the falsified-clause list by scanning the whole formula
    (and a WalkSAT break count re-evaluates every clause of the variable),
    so a flip costs O(clauses).  They draw from the RNG exactly as the
    kernel does, so for identical seeds they return identical results. *)

val minimise :
  max_flips:int ->
  ?should_stop:(unit -> bool) ->
  Stats.Rng.t ->
  num_vars:int ->
  (int * Sat.Clause.t) array ->
  int * bool array
(** The oracle for {!Cdcl.Walksat.minimise}. *)

val incumbent :
  ?max_flips:int -> ?should_stop:(unit -> bool) -> Stats.Rng.t -> Sat.Wcnf.t -> int * bool array
(** The oracle for [Hyqsat.Optimize.incumbent]: {!minimise} with the hard
    clauses at weight {!Sat.Wcnf.top} followed by the softs at their
    weights, over [max_flips] flips (default 20,000). *)

val walksat :
  ?max_flips:int ->
  ?restarts:int ->
  ?noise:float ->
  ?should_stop:(unit -> bool) ->
  Stats.Rng.t ->
  Sat.Cnf.t ->
  bool array option * Cdcl.Walksat.stats
(** The oracle for {!Cdcl.Walksat.solve}. *)
