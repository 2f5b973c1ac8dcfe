(** Energy-gap computation (paper §IV-C and Fig. 15).

    The energy gap of an encoded clause set is the minimum value of the
    (normalised) objective over assignments of the original variables that
    falsify at least one clause, with energy-optimal auxiliaries.  A larger
    gap means a steeper landscape and a higher chance the annealer escapes
    to the true minimum under noise. *)

val energy_gap : ?normalized:bool -> Qubo.Encode.t -> float
(** Exhaustive over the original variables — intended for small clause sets
    (tests, Fig. 15).  [normalized] (default [true]) divides by
    {!Qubo.Normalize.d_star} as the hardware would.
    @raise Invalid_argument beyond 20 original variables, or if the clause
    set is a tautology (no falsifying assignment exists). *)

val min_energy : ?normalized:bool -> Qubo.Encode.t -> float
(** Global minimum of the objective over all assignments; 0 iff the clause
    set is satisfiable (within float tolerance). *)
