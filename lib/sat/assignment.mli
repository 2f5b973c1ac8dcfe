(** Partial and total truth assignments. *)

type value = True | False | Unassigned

val value_of_bool : bool -> value

type t
(** A mutable partial assignment over a fixed variable universe. *)

val create : int -> t
(** [create n] is the everywhere-unassigned assignment over [n] variables. *)

val of_bools : bool array -> t
(** Total assignment from a boolean array. *)

val value : t -> Lit.var -> value
val set : t -> Lit.var -> bool -> unit
val unset : t -> Lit.var -> unit
val copy : t -> t

val lit_value : t -> Lit.t -> value
(** Value of a literal under the assignment ([¬x] is true when [x] is false). *)

val satisfies_clause : t -> Clause.t -> bool
(** [true] iff some literal of the clause is assigned true. *)

val clause_status : t -> Clause.t -> [ `Satisfied | `Falsified | `Unit of Lit.t | `Unresolved ]
(** Classifies the clause: satisfied, falsified, unit (one unassigned literal,
    rest false), or unresolved. *)

val satisfies : t -> Cnf.t -> bool
(** [true] iff every clause of the formula is satisfied (requires the touched
    variables to be assigned). *)

val num_unsatisfied : t -> Cnf.t -> int
(** Number of clauses not currently satisfied (falsified or undecided). *)

val to_bools : t -> default:bool -> bool array
(** Totalise, mapping unassigned variables to [default]. *)
