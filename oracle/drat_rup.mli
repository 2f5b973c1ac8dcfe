(** Counting RUP checker: the differential oracle for {!Sat.Drat.check}.

    This is the checker {!Sat.Drat} shipped before its watched-literal
    rewrite.  The clause database is a [Lit.t list list]; every lemma gets
    a fresh {!Sat.Assignment}, and propagation rescans every clause until
    nothing changes, so one lemma costs O(clauses × rounds).  A deletion
    sorts and compares the whole list and removes the first equal clause
    (deleting an absent clause is a no-op).  The verdicts match
    {!Sat.Drat.check} on proofs whose clauses carry no repeated literal;
    a literal over a variable outside the formula raises
    [Invalid_argument] here, where {!Sat.Drat} returns [Error]. *)

val check : Sat.Cnf.t -> Sat.Drat.t -> (unit, string) result
(** The oracle for {!Sat.Drat.check}: every addition is RUP and the proof
    derives the empty clause. *)

val check_steps : Sat.Cnf.t -> Sat.Drat.t -> (unit, string) result
(** The oracle for {!Sat.Drat.check_steps}: every addition is RUP. *)
