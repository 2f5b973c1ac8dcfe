(** Minor embeddings of problem graphs into Chimera hardware.

    A problem-graph node (SAT variable or auxiliary) maps to a {e chain} of
    physical qubits; a problem edge maps to a physical coupler joining the
    two chains.  Paper Fig. 2(e). *)

type t = {
  graph : Chimera.Graph.t;
  chains : (int, int list) Hashtbl.t;  (** node → qubit chain *)
  edge_couplers : (int * int, int * int) Hashtbl.t;
      (** problem edge (i<j) → physical coupler (qubit of i's chain, qubit
          of j's chain) *)
}

val create : Chimera.Graph.t -> t
val nodes : t -> int list
val chain : t -> int -> int list option
val set_chain : t -> int -> int list -> unit
val set_edge_coupler : t -> int -> int -> int * int -> unit
(** [set_edge_coupler t i j (qi, qj)] registers the physical coupler for
    problem edge [(i, j)]; [qi] must lie in [i]'s chain. *)

val edge_coupler : t -> int -> int -> (int * int) option
(** Order-insensitive lookup, result oriented as (qubit of min node's chain,
    qubit of max node's chain). *)

val qubits_used : t -> int
val chain_lengths : t -> int list
val avg_chain_length : t -> float

val validate : t -> edges:(int * int) list -> (unit, string) result
(** Full minor-embedding check: every chain non-empty, chains pairwise
    disjoint, each chain connected in the hardware graph, and every problem
    edge realised by an existing hardware coupler between the two chains
    (using the registered coupler when present, otherwise any coupler). *)
