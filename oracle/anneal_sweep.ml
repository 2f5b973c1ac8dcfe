module Sampler = Anneal.Sampler
module Sparse_ising = Anneal.Sparse_ising

let beta_ratio (schedule : Sampler.schedule) =
  if schedule.sweeps <= 1 then 1.0
  else (schedule.beta_max /. schedule.beta_min) ** (1.0 /. float_of_int (schedule.sweeps - 1))

(* the field-recomputing Metropolis loop; returns the accepted-flip count *)
let anneal_in_place ~(schedule : Sampler.schedule) rng (ising : Sparse_ising.t) spins =
  let n = ising.Sparse_ising.n in
  let accepted = ref 0 in
  if n > 0 then begin
    let ratio = beta_ratio schedule in
    let beta = ref schedule.beta_min in
    for _ = 1 to schedule.sweeps do
      for i = 0 to n - 1 do
        let field = Sparse_ising.local_field ising spins i in
        let delta = -2.0 *. float_of_int spins.(i) *. field in
        (* delta = E(flipped) - E(current); ties within [Kernel.tie_eps]
           are downhill so both kernels draw identically on degenerate
           (mathematically-zero) flips whose rounding differs between
           fresh summation and incremental accumulation *)
        if delta <= Anneal.Kernel.tie_eps || Stats.Rng.float rng 1.0 < exp (-. !beta *. delta)
        then begin
          spins.(i) <- -spins.(i);
          incr accepted
        end
      done;
      beta := !beta *. ratio
    done
  end;
  !accepted

let sample ?(schedule = Sampler.default_schedule) rng (ising : Sparse_ising.t) =
  let spins = Array.init ising.Sparse_ising.n (fun _ -> if Stats.Rng.bool rng then 1 else -1) in
  ignore (anneal_in_place ~schedule rng ising spins);
  spins
