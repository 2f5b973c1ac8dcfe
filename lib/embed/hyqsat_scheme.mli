(** HyQSAT's linear-time topology-aware embedding (paper §IV-B, Fig. 7).

    Clauses are consumed in queue order.  Step 1 allocates each new SAT
    variable to the next free {e vertical line}.  Step 2 satisfies the
    connection-requirement list (CRL) by placing one horizontal-line segment
    per requirement: a variable-keyed requirement [x:{y,…}] gets a segment
    spanning from x's own column across its targets' columns; an
    auxiliary-keyed requirement gets a segment across its three targets
    (auxiliaries live on horizontal lines only).  Horizontal lines fill
    bottom-up, greedily and out of order, so a line's leftover qubits can
    host later short segments.

    The construction is transactional per clause: if a clause's variables or
    segments do not fit, the clause (and everything after it) is left out
    and the embedding of the preceding prefix stands.  On the 16×16 graph
    this places ~45–53 clauses of a random 3-SAT queue per call, and
    [bench fig13] embeds every 40-clause queue and no 60-clause one — about
    a third of the paper's ≈170-clause capacity (Fig. 13).

    Complexity is linear in hardware size: each vertical line is assigned
    once and each horizontal qubit is claimed at most once. *)

type t = {
  embedding : Embedding.t;
  embedded_clauses : int;  (** length of the embedded clause-queue prefix *)
}

val embed : Chimera.Graph.t -> Sat.Clause.t array -> aux_of_clause:int array -> t
(** [embed graph clauses ~aux_of_clause] embeds the longest prefix of the
    clause queue that fits.  [aux_of_clause.(k)] is clause [k]'s auxiliary
    node, or [-1] for a clause without one — the numbering of
    {!Qubo.Encode.aux_numbering}, which {!Qubo.Encode.encode} also uses,
    so the placement lines up with the encoding of any prefix.  Only the
    clauses' variables are read: no penalty needs to exist yet.
    @raise Invalid_argument if the two arrays differ in length. *)

val capacity_estimate : Chimera.Graph.t -> int
(** A cap on clause-queue length, not a capacity: horizontal qubits / 4,
    256 on the 16×16 graph, several times what {!embed} places.  The
    clause-queue generator stops there, so this value sizes every queue. *)
