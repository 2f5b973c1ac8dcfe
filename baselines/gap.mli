(** Energy-gap computation (paper §IV-C and Fig. 15).

    The energy gap of an encoded clause set is the minimum value of the
    (normalised) objective over assignments of the original variables that
    falsify at least one clause, with energy-optimal auxiliaries.  A larger
    gap means a steeper landscape and a higher chance the annealer escapes
    to the true minimum under noise.  The optimal-auxiliary helpers below
    serve the scan and the encoding tests; the product never evaluates an
    encoding exhaustively. *)

val clauses_satisfied : Qubo.Encode.t -> bool array -> bool
(** Whether a total assignment of the {e original} variables satisfies every
    encoded clause (auxiliaries are ignored). *)

val best_aux : Qubo.Encode.t -> bool array -> bool array
(** [best_aux t x] extends an original-variable assignment with
    energy-minimising values for every auxiliary: for a clause
    [l1 ∨ l2 ∨ l3], the optimal choice under equation 4 is
    [a = l1 ∨ l2].  The result has length [num_total_vars]. *)

val min_energy_for : Qubo.Encode.t -> bool array -> float
(** Objective value with optimal auxiliaries: 0 iff all clauses satisfied
    (for the unadjusted α = 1 encoding this equals the number of falsified
    clauses or more). *)

val energy_gap : ?normalized:bool -> Qubo.Encode.t -> float
(** Exhaustive over the original variables — intended for small clause sets
    (tests, Fig. 15).  [normalized] (default [true]) divides by
    {!Qubo.Normalize.d_star} as the hardware would.
    @raise Invalid_argument beyond 20 original variables, or if the clause
    set is a tautology (no falsifying assignment exists). *)

val min_energy : ?normalized:bool -> Qubo.Encode.t -> float
(** Global minimum of the objective over all assignments; 0 iff the clause
    set is satisfiable (within float tolerance). *)
