(** Sparse Ising problem over an arbitrary spin set, in CSR-like form for the
    sampler's hot loop. *)

type t = {
  n : int;
  h : float array;
  (* CSR adjacency: for spin i, neighbours nbr.(off.(i) .. off.(i+1)-1) with
     couplings cpl at the same positions *)
  off : int array;
  nbr : int array;
  cpl : float array;
  offset : float;
}

val of_qubo :
  Qubo.Pbq.t -> n:int -> spin:(int -> int) -> float array * ((int * int) * float) list * float
(** [of_qubo q ~n ~spin] is the Ising form of [q] over [n] spins under
    [x = (1 + s)/2], variable [v] becoming spin [spin v]: the local fields,
    the couplings (keys [i < k], one per quadratic term, in reverse
    [Pbq.iter_quad] order) and the offset, so that
    [E(s) = offset + Σ h_i s_i + Σ J_ik s_i s_k] equals [q] at every
    assignment. *)

val build : n:int -> h:float array -> couplings:((int * int) * float) list -> offset:float -> t
(** [couplings] keys need not be deduplicated; repeated pairs accumulate
    (internally on an unboxed [i*n + j] key — one build runs per annealer
    call, so construction allocation matters). *)

val energy : t -> int array -> float
(** Energy of a ±1 spin configuration. *)

val local_field : t -> int array -> int -> float
(** [h_i + Σ_j J_ij s_j], the field seen by spin [i]. *)
