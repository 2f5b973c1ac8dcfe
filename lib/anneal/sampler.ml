type schedule = { sweeps : int; beta_min : float; beta_max : float }

let default_schedule = { sweeps = 256; beta_min = 0.1; beta_max = 16.0 }

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

(* per-domain reusable anneal scratch, one buffer per spin count: chunked
   reads on the persistent pool reuse it across chunks AND across calls,
   so the parallel path allocates no scratch on the hot path (only the
   per-chunk best buffers, one of which becomes the returned result) *)
let scratch_key : (int, int array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let scratch_for n =
  let tbl = Domain.DLS.get scratch_key in
  match Hashtbl.find_opt tbl n with
  | Some b -> b
  | None ->
      let b = Array.make n 0 in
      Hashtbl.add tbl n b;
      b

(* the best of [k] reads: the one read path, whatever [k] *)
let best_of ~obs ~schedule ?init ~domains rng (ising : Sparse_ising.t) k =
  let n = ising.Sparse_ising.n in
  Option.iter
    (fun s -> if Array.length s <> n then invalid_arg "Sampler.sample: init length")
    init;
  (* a lone read anneals on the caller's own stream; [k > 1] reads each get
     a stream split off the caller's generator up front, so the spin
     outcome is a pure function of (rng state, k) and cannot depend on how
     many domains execute the reads *)
  let streams = if k = 1 then [| rng |] else Stats.Rng.split_n rng k in
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
  let best, total_accepted =
    if domains <= 1 || k = 1 then begin
      (* serial path: one scratch buffer + one best buffer, reused across
         all k reads — no per-read allocation *)
      let scratch = Array.make n 0 and best = Array.make n 0 in
      let _, total = best_of_range scratch best 0 k in
      (best, total)
    end
    else begin
      (* chunked assignment on the shared persistent pool: k reads cost
         ⌈k/chunks⌉-read chunks (one hand-off each) instead of k hand-offs,
         and no domain is spawned — the pool outlives the call *)
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
      Parallel.Pool.run (Parallel.Pool.shared ()) (List.init chunks thunk);
      (* chunks cover contiguous ascending read ranges, so strict < in
         chunk order again selects the lowest-index minimal-energy read *)
      let bi = ref 0 in
      for c = 1 to chunks - 1 do
        if chunk_e.(c) < chunk_e.(!bi) then bi := c
      done;
      (chunk_best.(!bi), Array.fold_left ( + ) 0 chunk_acc)
    end
  in
  (* counters aggregated once, after the join — workers never touch [obs] *)
  if not (Obs.Ctx.is_null obs) then begin
    Obs.Metrics.count obs "anneal_sweeps_total" (k * schedule.sweeps);
    Obs.Metrics.count obs "anneal_accepted_flips_total" total_accepted;
    if k > 1 then Obs.Metrics.count obs "anneal_reads_total" k
  end;
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
let sample ?(obs = Obs.Ctx.null) ?(noise = Noise.noise_free) ?(reads = 1) ?init ?(domains = 1)
    ~schedule rng (ising : Sparse_ising.t) =
  if reads < 1 then invalid_arg "Sampler.sample: reads";
  let programmed = Noise.apply_coeff noise rng ising in
  Noise.apply_readout noise rng (best_of ~obs ~schedule ?init ~domains rng programmed reads)
