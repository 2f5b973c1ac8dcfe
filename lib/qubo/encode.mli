(** QUBO encoding of a 3-SAT clause set (paper §II-C, Equations 3–5).

    Each 3-literal clause [l1 ∨ l2 ∨ l3] is decomposed with one fresh
    auxiliary variable [a] into two sub-clauses
    [c₁ = a ↔ (l1 ∨ l2)] and [c₂ = l3 ∨ a], each with a quadratic penalty
    function whose minimum is 0 exactly when the sub-clause holds
    (Equation 4).  Clauses of 1 or 2 literals get a direct product penalty
    and need no auxiliary.  The total objective is the α-weighted sum of
    sub-clause penalties (Equation 5); all α default to 1 and can be
    re-weighted by {!Adjust}. *)

type sub = {
  clause_index : int;  (** index into the encoded clause array *)
  sub_index : int;  (** 1 or 2 within the clause *)
  sub_vars : int list;  (** problem/aux variables of this sub-clause *)
  penalty : Pbq.t;  (** H_{c_{k,j}} with α = 1 *)
  mutable alpha : float;
}

type t = {
  clauses : Sat.Clause.t array;
  num_original_vars : int;  (** variable universe of the input clauses *)
  num_total_vars : int;  (** original + auxiliary *)
  aux_of_clause : int array;  (** clause → its auxiliary variable, or -1 *)
  subs : sub array;
}

val aux_numbering : num_vars:int -> Sat.Clause.t array -> int array * int
(** [aux_numbering ~num_vars clauses] is [(aux_of_clause, num_total_vars)]
    of {!encode} on the same clauses, without building any penalty: one
    auxiliary per 3-literal clause, numbered from [num_vars] upwards in
    clause order, [-1] for shorter clauses.  The numbering of a prefix is
    a prefix of the numbering, which is what lets the line embedder place
    a whole clause queue before only its embedded prefix is encoded.
    @raise Invalid_argument on clauses with more than 3 literals. *)

val encode : num_vars:int -> Sat.Clause.t list -> t
(** Encode a clause list over a [num_vars]-variable universe.  Auxiliary
    variables are numbered by {!aux_numbering}.
    @raise Invalid_argument on clauses with more than 3 literals. *)

val set_clause_weights : t -> float array -> unit
(** Weighted (MaxSAT) mode: scale every sub-clause's {e current} α by its
    clause's weight, normalised so the heaviest clause keeps its α — the
    annealer then minimises weighted violation cost instead of violation
    count (Bian et al.).  Composes with {!Adjust.adjust}: call it {e after}
    adjustment, since [adjust] resets all α to its own values.  One weight
    per encoded clause, each [> 0].
    @raise Invalid_argument on a length mismatch or non-positive weight. *)

val objective : t -> Pbq.t
(** The α-weighted total objective H_C(X, A). *)
