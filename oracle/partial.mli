(** Mutable partial assignments, for the oracles' naive propagation and for
    counting what a total model falsifies.  Moved from [Sat.Assignment],
    which keeps only the model check the product needs. *)

type value = True | False | Unassigned

type t
(** A mutable partial assignment over a fixed variable universe. *)

val create : int -> t
(** [create n] is the everywhere-unassigned assignment over [n] variables. *)

val value : t -> Sat.Lit.var -> value
val set : t -> Sat.Lit.var -> bool -> unit
val unset : t -> Sat.Lit.var -> unit

val lit_value : t -> Sat.Lit.t -> value
(** Value of a literal under the assignment ([¬x] is true when [x] is false). *)

val clause_status :
  t -> Sat.Clause.t -> [ `Satisfied | `Falsified | `Unit of Sat.Lit.t | `Unresolved ]
(** Classifies the clause: satisfied, falsified, unit (one unassigned literal,
    rest false), or unresolved. *)

val to_bools : t -> default:bool -> bool array
(** Totalise, mapping unassigned variables to [default]. *)

val num_unsatisfied : bool array -> Sat.Cnf.t -> int
(** Number of clauses a total model falsifies. *)
