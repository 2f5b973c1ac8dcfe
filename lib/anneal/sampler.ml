type schedule = { sweeps : int; beta_min : float; beta_max : float }

let default_schedule = { sweeps = 256; beta_min = 0.1; beta_max = 16.0 }
let quick_schedule = { sweeps = 96; beta_min = 0.1; beta_max = 8.0 }

type params = {
  schedule : schedule;
  noise : Noise.t;
  reads : int;
}

let default_params = { schedule = default_schedule; noise = Noise.noise_free; reads = 1 }

let make_params ?(base = default_params) ?schedule ?noise ?reads () =
  let v d o = Option.value ~default:d o in
  {
    schedule = v base.schedule schedule;
    noise = v base.noise noise;
    reads = v base.reads reads;
  }

let beta_ratio schedule =
  if schedule.sweeps <= 1 then 1.0
  else (schedule.beta_max /. schedule.beta_min) ** (1.0 /. float_of_int (schedule.sweeps - 1))

(* Anneal [spins] in place over the schedule with the {!Kernel} sweep;
   returns the accepted-flip count. *)
let anneal_in_place ~schedule rng (ising : Sparse_ising.t) spins =
  if ising.Sparse_ising.n = 0 then 0
  else begin
    let ratio = beta_ratio schedule in
    let beta = ref schedule.beta_min in
    let k = Kernel.init ising spins in
    for _ = 1 to schedule.sweeps do
      Kernel.sweep k ~beta:!beta rng;
      beta := !beta *. ratio
    done;
    Kernel.accepted k
  end

let random_spins_into rng spins =
  for i = 0 to Array.length spins - 1 do
    spins.(i) <- (if Stats.Rng.bool rng then 1 else -1)
  done

let checked_init n s =
  if Array.length s <> n then invalid_arg "Sampler.sample: init length"

let count_obs obs ~sweeps ~accepted =
  if not (Obs.Ctx.is_null obs) then begin
    Obs.Metrics.count obs "anneal_sweeps_total" sweeps;
    Obs.Metrics.count obs "anneal_accepted_flips_total" accepted
  end

(* one read, drawing directly from [rng] — the historical single-shot draw
   sequence, kept bit-identical so noise-free seeds reproduce across PRs *)
let sample_single ~obs ~schedule ?init rng (ising : Sparse_ising.t) =
  let n = ising.Sparse_ising.n in
  let spins =
    match init with
    | Some s ->
        checked_init n s;
        Array.copy s
    | None -> Array.init n (fun _ -> if Stats.Rng.bool rng then 1 else -1)
  in
  let accepted = anneal_in_place ~schedule rng ising spins in
  count_obs obs ~sweeps:schedule.sweeps ~accepted;
  spins

(* per-domain reusable anneal scratch, one buffer per spin count: chunked
   reads on the persistent pool reuse it across chunks AND across calls,
   so the parallel path allocates no scratch on the hot path (only the
   per-chunk best buffers, one of which becomes the returned result) *)
let scratch_local : (int, int array) Hashtbl.t Parallel.Local.t =
  Parallel.Local.make (fun () -> Hashtbl.create 4)

let scratch_for n =
  let tbl = Parallel.Local.get scratch_local in
  match Hashtbl.find_opt tbl n with
  | Some b -> b
  | None ->
      let b = Array.make n 0 in
      Hashtbl.add tbl n b;
      b

let sample_multi ~obs ~schedule ?init ?pool ~domains rng (ising : Sparse_ising.t) k =
  let n = ising.Sparse_ising.n in
  Option.iter (checked_init n) init;
  (* every read gets its own RNG stream, split off the caller's generator
     up front — the spin outcome is a pure function of (rng state, k) and
     cannot depend on how many domains execute the reads *)
  let streams = Stats.Rng.split_n rng k in
  let seed_spins buf stream =
    match init with
    | Some s -> Array.blit s 0 buf 0 n
    | None -> random_spins_into stream buf
  in
  (* best-of over reads [lo, hi) into [best]; strict < keeps the winner the
     lowest-index minimal-energy read — both paths below share this fold,
     which is what makes them bit-identical *)
  let best_of_range scratch best lo hi =
    let best_e = ref infinity and total = ref 0 in
    for r = lo to hi - 1 do
      let stream = streams.(r) in
      seed_spins scratch stream;
      total := !total + anneal_in_place ~schedule stream ising scratch;
      let e = Sparse_ising.energy ising scratch in
      if e < !best_e then begin
        best_e := e;
        Array.blit scratch 0 best 0 n
      end
    done;
    (!best_e, !total)
  in
  let best, _best_e, total_accepted =
    if domains <= 1 || k = 1 then begin
      (* serial path: one scratch buffer + one best buffer, reused across
         all k reads — no per-read allocation *)
      let scratch = Array.make n 0 and best = Array.make n 0 in
      let best_e, total = best_of_range scratch best 0 k in
      (best, best_e, total)
    end
    else begin
      (* chunked assignment on a persistent pool: k reads cost
         ⌈k/chunks⌉-read chunks (one hand-off each) instead of k hand-offs,
         and no domain is spawned — the pool outlives the call *)
      let pool = match pool with Some p -> p | None -> Parallel.Tasks.shared () in
      let chunks = min domains k in
      let per = (k + chunks - 1) / chunks in
      let chunk_best = Array.make chunks [||] in
      let chunk_e = Array.make chunks infinity in
      let chunk_acc = Array.make chunks 0 in
      let thunk c ~worker:_ =
        let lo = c * per in
        let hi = min k (lo + per) in
        if lo < hi then begin
          (* the anneal scratch is domain-local and reused; the chunk best
             must be owned by the chunk (one domain can execute several
             chunks), and the winning chunk's buffer becomes the result *)
          let best = Array.make n 0 in
          let e, acc = best_of_range (scratch_for n) best lo hi in
          chunk_best.(c) <- best;
          chunk_e.(c) <- e;
          chunk_acc.(c) <- acc
        end
      in
      Parallel.Tasks.run pool (List.init chunks thunk);
      (* chunks cover contiguous ascending read ranges, so strict < in
         chunk order again selects the lowest-index minimal-energy read *)
      let bi = ref 0 in
      for c = 1 to chunks - 1 do
        if chunk_e.(c) < chunk_e.(!bi) then bi := c
      done;
      (chunk_best.(!bi), chunk_e.(!bi), Array.fold_left ( + ) 0 chunk_acc)
    end
  in
  (* counters aggregated once, after the join — workers never touch [obs] *)
  count_obs obs ~sweeps:(k * schedule.sweeps) ~accepted:total_accepted;
  if not (Obs.Ctx.is_null obs) then Obs.Metrics.count obs "anneal_reads_total" k;
  best

(* Draw-order contract (see Noise): for one [sample] call the caller's RNG
   is consumed in exactly this sequence —
     1. [Noise.apply_coeff]   (programming noise; zero draws when σ = 0)
     2. init spins, when [init] is [None]
     3. the Metropolis sweeps (or, for [reads > 1], one [split_n] block
        after which each read drains its own private stream)
     4. [Noise.apply_readout] (readout flips; zero draws when p = 0)
   Anything injected around the call (faults, latency) must use a separate
   stream or the sequence — and with it bit-reproducibility — breaks. *)
let sample ?(obs = Obs.Ctx.null) ?(params = default_params) ?init ?pool ?(domains = 1) rng
    (ising : Sparse_ising.t) =
  if params.reads < 1 then invalid_arg "Sampler.sample: reads";
  let programmed = Noise.apply_coeff params.noise rng ising in
  let spins =
    if params.reads = 1 then sample_single ~obs ~schedule:params.schedule ?init rng programmed
    else
      sample_multi ~obs ~schedule:params.schedule ?init ?pool ~domains rng programmed
        params.reads
  in
  Noise.apply_readout params.noise rng spins
