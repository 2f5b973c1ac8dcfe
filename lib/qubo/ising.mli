(** Ising-model form of a QUBO objective.

    QA hardware is described by the Ising Hamiltonian
    [E(s) = offset + Σ h_i s_i + Σ J_{ij} s_i s_j] over spins [s ∈ {-1,+1}];
    the transform is [x = (1 + s)/2]. *)

type t = {
  num_spins : int;
  h : float array;  (** local fields, indexed by dense spin index *)
  j : ((int * int) * float) list;  (** couplings, keys [i < j] in spin index *)
  offset : float;
  spin_of_var : (int, int) Hashtbl.t;  (** QUBO variable → dense spin index *)
  var_of_spin : int array;  (** dense spin index → QUBO variable *)
}

val of_qubo : Pbq.t -> t
(** Densely re-indexes the QUBO variables and converts coefficients. *)

val energy : t -> int array -> float
(** Energy of a spin configuration (entries must be ±1). *)

val spins_of_bools : t -> bool array -> int array
(** Convert a QUBO assignment (indexed by QUBO variable) to spins. *)
