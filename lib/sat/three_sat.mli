(** K-SAT to 3-SAT conversion (HyQSAT paper §VII-B).

    A clause [l1 ∨ ... ∨ lk] with [k > 3] is split with [k-3] fresh auxiliary
    variables into an equisatisfiable chain
    [l1 ∨ l2 ∨ a1], [¬a1 ∨ l3 ∨ a2], ..., [¬a_{k-3} ∨ l_{k-1} ∨ lk]. *)

type mapping = { original_vars : int; aux_vars : int }
(** [original_vars] variables come first; the [aux_vars] fresh chain
    variables occupy indices [original_vars ..]. *)

val convert : Cnf.t -> Cnf.t * mapping
(** [convert f] returns an equisatisfiable 3-SAT formula and the variable
    mapping.  Clauses of size ≤ 3 are kept verbatim. *)
