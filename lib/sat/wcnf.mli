(** Weighted partial MaxSAT formulas (WCNF).

    A formula is a set of {e hard} clauses that any acceptable model must
    satisfy, plus {e soft} clauses each carrying a positive integer weight;
    the cost of a model is the summed weight of the soft clauses it
    falsifies.  Both WDIMACS dialects are supported: the classic
    [p wcnf <vars> <clauses> <top>] header (a clause whose leading weight is
    [>= top] is hard) and the 2022 headerless format where hard clauses are
    prefixed with [h] and soft clauses with their weight. *)

type soft = { weight : int; clause : Clause.t }
(** One soft clause.  [weight >= 1] always holds. *)

type t = private { num_vars : int; hard : Clause.t array; soft : soft array }

val make : num_vars:int -> hard:Clause.t list -> soft:(int * Clause.t) list -> t
(** @raise Invalid_argument on an out-of-range literal, a weight [< 1], or
    a summed soft weight that would overflow [max_int] (so {!top} and
    penalised costs stay valid native ints; the parser reports the same
    condition as {!Parse_error}). *)

val of_cnf : Cnf.t -> t
(** Every clause of [f] becomes soft at weight 1 — the classic unweighted
    MaxSAT relaxation. *)

val num_vars : t -> int
val num_hard : t -> int
val num_soft : t -> int

val sum_weights : t -> int
(** Total weight of all soft clauses (an upper bound on any model's cost). *)

val top : t -> int
(** [sum_weights f + 1]: the classic-WDIMACS hard-clause marker weight. *)

val hard_cnf : t -> Cnf.t
(** Just the hard clauses, as a decision formula over the same variables. *)

val soft_clauses : t -> (int * Clause.t) list

val cost : t -> bool array -> int
(** Summed weight of the soft clauses falsified by the (total) model.
    Ignores hard clauses — see {!hard_satisfied}. *)

val hard_satisfied : t -> bool array -> bool

exception Parse_error of { line : int; reason : string }
(** The same exception as {!Lexer.Parse_error}. *)

val parse_string : string -> t
(** Parse either WDIMACS dialect, with the grammar and caps of {!Lexer}.
    @raise Parse_error on malformed input. *)

val to_string : ?format:[ `Classic | `Std2022 ] -> ?comments:string list -> t -> string
(** Render to WDIMACS (default [`Classic], which preserves [num_vars]
    exactly through a parse round-trip; [`Std2022] recovers the variable
    count as the largest literal mentioned). *)

val write_file : ?format:[ `Classic | `Std2022 ] -> ?comments:string list -> string -> t -> unit
