(** Brute-force reference solver (exhaustive enumeration).

    Only usable for small variable counts; the test suite relies on it as a
    ground-truth oracle for CDCL, DPLL, QUBO encodings and the annealer. *)

val solve : ?limit_vars:int -> Sat.Cnf.t -> bool array option
(** [solve f] is [Some model] for the lexicographically-first satisfying
    assignment, [None] if unsatisfiable.
    @raise Invalid_argument if [Sat.Cnf.num_vars f > limit_vars] (default 24). *)

val count_models : ?limit_vars:int -> Sat.Cnf.t -> int
(** Number of satisfying assignments. *)

val min_unsatisfied : ?limit_vars:int -> Sat.Cnf.t -> int
(** Minimum number of falsified clauses over all total assignments
    (the MAX-SAT optimum complement); [0] iff satisfiable. *)

val min_cost : ?limit_vars:int -> Sat.Wcnf.t -> (int * bool array) option
(** Weighted MaxSAT ground truth: the minimum soft-clause cost over all
    assignments satisfying every hard clause, with the lexicographically
    first witnessing model; [None] when the hard clauses are unsatisfiable. *)
