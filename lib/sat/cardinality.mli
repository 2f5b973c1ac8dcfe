(** Cardinality constraints as CNF, in two encodings.

    [at_most_one] uses the sequential counter (Sinz 2005): the register
    variables [s_i] ("one of the first i+1 literals is true") and 3n-4
    clauses.  Its one caller in the solver is core-guided MaxSAT search,
    which relaxes each core with exactly one of its relaxation variables:
    the clause over them plus [at_most_one].

    The weighted bounds below use a binary adder network instead: the
    exact MaxSAT linear search bounds its cost with {!weighted_sum} and
    {!bound_clauses}, and the optimality certificate with
    {!at_most_weight}. *)

type t = {
  clauses : Clause.t list;
  num_vars : int;  (** total variable count after adding the registers *)
}

val at_most_one : num_vars:int -> Lit.t list -> t
(** [at_most_one ~num_vars lits] constrains at most one of [lits] to be
    true.  The n-1 registers are numbered from [num_vars]; fewer than two
    literals yield no clauses. *)

(** {2 Weighted bounds}

    Pseudo-Boolean bounds [sum w_i·l_i <= k] through a binary adder network
    (Warners 1998): each weighted literal contributes the binary number
    whose set bits are the literal, the numbers are summed with
    Tseitin-encoded ripple-carry adders, and the output bits are compared
    against the constant bound.  O(m·log sum_weights) variables and
    clauses — safe for the weight magnitudes real WDIMACS instances carry,
    where a unary expansion would allocate O(sum_weights). *)

type adder = {
  sum_bits : Lit.t option array;
      (** binary value of the weighted true-literal count, LSB first;
          [None] is a constant-zero bit *)
  adder_clauses : Clause.t list;
  adder_num_vars : int;  (** total variable count after the adder cells *)
}

val weighted_sum : num_vars:int -> (int * Lit.t) list -> adder
(** Build the adder over [(weight, literal)] pairs, numbering fresh
    variables from [num_vars].  The encoding is a full equivalence, so
    [sum_bits] always equals the weighted count — which makes the result
    reusable: compare it against successive bounds with {!bound_clauses}
    without re-encoding.  Weights must be non-negative; zero-weight
    literals contribute nothing. *)

val bound_clauses : adder -> k:int -> Clause.t list
(** Clauses forcing the adder's value [<= k], introducing no variables.
    Bounds only tighten as [k] decreases: the clause set for a smaller [k]
    subsumes the larger one's meaning, so successive calls can be added
    permanently to one incremental solver session. *)

val at_most_weight : num_vars:int -> (int * Lit.t) list -> k:int -> t
(** [weighted_sum] composed with [bound_clauses]: one-shot
    [sum w_i·l_i <= k]. *)
