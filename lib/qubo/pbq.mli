(** Pseudo-boolean quadratic functions
    [H(x) = const + Σ B_i x_i + Σ J_{ij} x_i x_j] over 0/1 variables.

    This is the paper's Equation 2 objective form.  Variables are plain
    integers; coefficients are stored sparsely.  Terms whose coefficient
    becomes (numerically) zero are dropped. *)

type t

val create : unit -> t
val const : t -> float
val add_const : t -> float -> unit
val add_linear : t -> int -> float -> unit
val add_quad : t -> int -> int -> float -> unit
(** [add_quad h i j c] adds [c·x_i·x_j]; [i <> j] required ([x_i² = x_i]
    callers must fold squares into the linear term themselves). *)

val linear : t -> int -> float
(** Coefficient [B_i] (0 when absent). *)

val quad : t -> int -> int -> float
(** Coefficient [J_{ij}] (order-insensitive, 0 when absent). *)

val add_scaled : t -> t -> float -> unit
(** [add_scaled acc h α] folds [α·h] into [acc]. *)

val vars : t -> int list
(** Sorted distinct variables with a non-zero coefficient. *)

val edges : t -> (int * int) list
(** Sorted pairs with non-zero quadratic coefficient — the problem-graph
    edges of paper Fig. 2(d). *)

val iter_linear : t -> (int -> float -> unit) -> unit
val iter_quad : t -> (int -> int -> float -> unit) -> unit

val eval : t -> (int -> bool) -> float
(** Evaluate under a 0/1 assignment. *)

val scale : t -> float -> t
(** Fresh function multiplied by a scalar. *)

val pp : Format.formatter -> t -> unit
