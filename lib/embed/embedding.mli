(** Minor embeddings of problem graphs into Chimera hardware.

    A problem-graph node (SAT variable or auxiliary) maps to a {e chain} of
    physical qubits; a problem edge maps to a physical coupler joining the
    two chains.  Paper Fig. 2(e).

    A placement is immutable.  {!make} also derives the wiring the device
    is programmed with, so [Anneal.Machine.run_via] only fills in
    coefficients, and a cached placement is wired once. *)

type t = private {
  graph : Chimera.Graph.t;
  nodes : int array;  (** ascending *)
  chains : int array array;  (** [chains.(k)]: [nodes.(k)]'s qubits, ascending *)
  couplers : (int * (int * int)) list array;
      (** [couplers.(k)]: each registered edge [(nodes.(k), j)], [j] larger,
          as [(j, (qubit of nodes.(k)'s chain, qubit of j's chain))] *)
  slots : int array;  (** [slots.(v)]: node [v]'s index in [nodes], or -1 *)
  phys : int array;
      (** qubit → physical index, numbering chain qubits in first-touch order
          over [chains]; -1 for a qubit in no chain *)
  num_phys : int;  (** qubits in some chain *)
  chain_couplers : int array;
      (** every hardware edge inside a chain as a physical index pair, laid
          flat (entries [2c], [2c + 1]), chain by chain, then by ascending
          qubit pair: the device's insertion order, which fixes its CSR
          layout and float sums ([Anneal.Sparse_ising.build]) *)
}

val make :
  Chimera.Graph.t -> chains:(int * int list) list -> couplers:((int * int) * (int * int)) list -> t
(** [make graph ~chains ~couplers] places each [(node, qubits)] and
    registers each [((i, j), (qi, qj))] as edge [(i, j)]'s coupler.  Chains
    need not be disjoint, connected or adjacent: {!validate} checks that.
    @raise Invalid_argument on a repeated node, a node or qubit out of
    range, or a coupler qubit outside its node's chain. *)

val slot : t -> int -> int
(** [slot t v] is node [v]'s index in [t.nodes], or -1. *)

val edge_coupler : t -> int -> int -> (int * int) option
(** [edge_coupler t i j] is edge [(i, j)]'s registered coupler, as (qubit
    of [i]'s chain, qubit of [j]'s chain). *)

val qubits_used : t -> int
val avg_chain_length : t -> float

val validate : t -> edges:(int * int) list -> (unit, string) result
(** Full minor-embedding check: every chain non-empty, chains pairwise
    disjoint, each chain connected in the hardware graph, and every problem
    edge realised by its registered coupler, a hardware coupler.  An edge
    without one is rejected even when its chains touch. *)
