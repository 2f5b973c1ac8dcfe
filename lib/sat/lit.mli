(** Propositional literals.

    A variable is a non-negative integer [0 .. n-1].  A literal packs a
    variable and a sign into a single integer using the MiniSAT convention
    [lit = 2 * var + (negated ? 1 : 0)], which makes literals cheap array
    indices and negation a single [lxor]. *)

type var = int
(** A propositional variable, [0]-based. *)

type t = int
(** A literal.  Use the constructors below rather than raw arithmetic. *)

val make : var -> bool -> t
(** [make v sign] is the literal over variable [v]; [sign = true] gives the
    positive literal [v], [sign = false] gives [¬v]. *)

val pos : var -> t
(** [pos v] is the positive literal of [v]. *)

val neg_of : var -> t
(** [neg_of v] is the negative literal [¬v]. *)

val var : t -> var
(** [var l] is the variable underlying [l]. *)

val negate : t -> t
(** [negate l] flips the sign of [l]. *)

val is_pos : t -> bool
(** [is_pos l] is [true] iff [l] is a positive literal. *)

val to_dimacs : t -> int
(** [to_dimacs l] is the 1-based signed integer DIMACS encoding of [l]. *)

val of_dimacs : int -> t
(** [of_dimacs i] parses a non-zero DIMACS literal.
    @raise Invalid_argument on [0]. *)

val compare : t -> t -> int
(** Total order on literals (variable-major, positive first). *)


val pp : Format.formatter -> t -> unit
(** Prints [x3] or [~x3]. *)

val to_string : t -> string
