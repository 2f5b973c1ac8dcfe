type t = { coeff_sigma : float; readout_flip : float }

let noise_free = { coeff_sigma = 0.; readout_flip = 0. }
(* set on the 96-sweep noisy device of Table II's first runs, not refitted
   for the 32-sweep one it runs on now (noise.mli) *)
let default_2000q = { coeff_sigma = 0.03; readout_flip = 0.01 }
let bit_flip_only p = { coeff_sigma = 0.; readout_flip = p }

let apply_coeff t rng (ising : Sparse_ising.t) =
  if t.coeff_sigma = 0. then ising
  else begin
    let jitter x = x +. Stats.Rng.gaussian rng ~mu:0. ~sigma:t.coeff_sigma in
    let h = Array.map jitter ising.Sparse_ising.h in
    (* CSR stores each coupling twice; perturb symmetric pairs coherently by
       rebuilding from the upper triangle *)
    let couplings = ref [] in
    for i = 0 to ising.Sparse_ising.n - 1 do
      for k = ising.Sparse_ising.off.(i) to ising.Sparse_ising.off.(i + 1) - 1 do
        let j = ising.Sparse_ising.nbr.(k) in
        if j > i then couplings := ((i, j), jitter ising.Sparse_ising.cpl.(k)) :: !couplings
      done
    done;
    Sparse_ising.build ~n:ising.Sparse_ising.n ~h ~couplings:!couplings
      ~offset:ising.Sparse_ising.offset
  end

let apply_readout t rng spins =
  if t.readout_flip = 0. then spins
  else
    Array.map (fun s -> if Stats.Rng.float rng 1.0 < t.readout_flip then -s else s) spins
