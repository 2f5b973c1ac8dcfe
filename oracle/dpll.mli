(** Plain DPLL (no clause learning): the pre-CDCL baseline.

    Unit propagation + chronological backtracking with a most-occurrences
    branching rule.  Exists as a reference point for how much conflict
    learning buys, and as a second ground-truth oracle in the test suite for
    instances beyond {!Brute}'s reach. *)

type stats = { decisions : int; propagations : int; backtracks : int }

val solve : ?max_decisions:int -> Sat.Cnf.t -> Cdcl.Solver.result * stats
(** [Unknown Budget] when the decision budget runs out. *)
