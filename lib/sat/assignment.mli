(** Checking a model, one bool per variable, against clauses. *)

val satisfies_clause : bool array -> Clause.t -> bool
(** [true] iff some literal of the clause is true under the model. *)

val satisfies : bool array -> Cnf.t -> bool
(** [true] iff every clause of the formula is satisfied (the model must
    cover every variable the clauses touch). *)
