(** Disjunctive clauses over literals.

    A clause is an immutable array of literals.  Construction normalises the
    clause: duplicate literals are removed and literals are sorted.  A clause
    containing both [l] and [¬l] is a tautology; [make] keeps it as-is but
    {!is_tautology} detects it. *)

type t = private Lit.t array

val make : Lit.t list -> t
(** [make lits] builds a clause, deduplicating and sorting [lits]. *)

val of_dimacs : int list -> t
(** [of_dimacs ints] builds a clause from signed DIMACS literals. *)

val lits : t -> Lit.t list
val to_array : t -> Lit.t array
val size : t -> int
val is_empty : t -> bool

val is_tautology : t -> bool
(** [true] iff the clause contains a literal and its negation. *)

val vars : t -> Lit.var list
(** Sorted distinct variables of the clause. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
