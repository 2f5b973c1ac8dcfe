(* Annealing-engine microbenchmark (no paper analogue): throughput of the
   incremental Metropolis kernel against the oracle library's
   field-recomputing sweep, domain-parallel best-of-k reads, and the
   frontend's embedding cache.  Writes BENCH_anneal.json at the repo root
   — the repo's perf trajectory for the QA hot path — and fails (exit 1)
   if the incremental kernel's flips/sec drops more than 2x below the
   committed floor, if it allocates more than 0.25 minor-heap words per
   attempted flip, or if parallel best-of on a multicore machine fails to
   beat the serial path, so CI catches kernel, allocation and pool
   regressions.
   A domain count above the machine's core count is run for the energy
   check only and recorded as skipped: its wall time would measure
   interleaving, not parallelism.

   The spin instance is the full 16x16 Chimera hardware graph (2048 qubits,
   every coupler carries a Gaussian coupling) — the same shape the machine
   layer anneals after embedding, at the hardware's maximum occupancy. *)

module Sampler = Anneal.Sampler
module SI = Anneal.Sparse_ising

(* Committed floor for the incremental kernel on a 2048-spin Chimera
   instance over the full production schedule.  Measured ~65 M flips/s on
   the dev container; the floor is set ~3x below that to absorb slow CI
   machines, and the gate fires at floor / 2 — only a real (>2x)
   regression trips it. *)
let floor_flips_per_sec = 20e6

(* Minor-heap words one incremental anneal may allocate per attempted flip.
   The kernel's draws and accepts allocate nothing, so what remains is the
   per-call set-up spread over the flips (~0.01 on this instance); boxing
   the Metropolis draw again would cost ~3.7, so the gate trips on that
   kind of regression and on nothing smaller than a per-sweep leak. *)
let max_minor_words_per_flip = 0.25

let chimera_instance seed =
  let g = Chimera.Graph.standard_2000q () in
  let rng = Stats.Rng.create ~seed in
  let n = Chimera.Graph.num_qubits g in
  let h = Array.init n (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.) in
  let couplings = ref [] in
  Chimera.Graph.iter_couplers g (fun i j ->
      couplings := ((i, j), Stats.Rng.gaussian rng ~mu:0. ~sigma:1.) :: !couplings);
  SI.build ~n ~h ~couplings:!couplings ~offset:0.

(* The two sweeps under comparison: one noise-free single-read anneal. *)
let reference ~schedule rng ising = ignore (Oracle.Anneal_sweep.sample ~schedule rng ising)

let incremental ~schedule rng ising =
  ignore (Sampler.sample ~params:(Sampler.make_params ~schedule ()) rng ising)

let minor_words_per_flip ~schedule ising seed =
  let rng = Stats.Rng.create ~seed in
  let before = Gc.minor_words () in
  incremental ~schedule rng ising;
  (Gc.minor_words () -. before) /. float_of_int (schedule.Sampler.sweeps * ising.SI.n)

(* Each trial times one full anneal; the throughput estimate is the
   fastest trial.  Min-of-N is the right estimator on a shared machine —
   scheduler noise only ever adds time, so the minimum is the closest
   observation to the true cost and the ratio between kernels stays stable
   run to run. *)
let time_kernel ~anneal ~schedule ~repeats ising seed =
  (* warmup run: page in the CSR arrays and settle the branch predictors so
     whichever kernel runs first isn't billed for the cold caches *)
  anneal ~schedule (Stats.Rng.create ~seed:(seed + 7)) ising;
  let rng = Stats.Rng.create ~seed in
  let best = ref infinity in
  for _ = 1 to repeats do
    let (), wall = Bench_util.wall (fun () -> anneal ~schedule rng ising) in
    if wall < !best then best := wall
  done;
  let flips = float_of_int (schedule.Sampler.sweeps * ising.SI.n) in
  (!best, flips /. Float.max !best 1e-9)

(* Fixed-β sweeps isolate the kernel's regimes: the low-β mixing phase is
   accept-dominated (both kernels pay O(deg) per attempt there — the
   reference in its field scan, the incremental in its push), while β ≥ 1
   is reject-dominated, which is where the O(1) delta read and the exp-free
   threshold table pay off.  The production schedule spends ~55% of its
   sweeps at β ≥ 1. *)
let time_regime ~anneal ~beta ~trials ising seed =
  let sweeps = 512 in
  let schedule = { Sampler.sweeps; beta_min = beta; beta_max = beta } in
  let best = ref infinity in
  for trial = 0 to trials do
    let rng = Stats.Rng.create ~seed:(seed + trial) in
    let (), wall = Bench_util.wall (fun () -> anneal ~schedule rng ising) in
    (* trial 0 is the warmup *)
    if trial > 0 && wall < !best then best := wall
  done;
  float_of_int (sweeps * ising.SI.n) /. Float.max !best 1e-9

(* Min-of-N with one untimed warm-up run.  The warm-up spins up the shared
   pool's worker domains, so the first timed trial isn't billed for the
   one-off spawn the persistent pool amortises in production.  The RNG is
   re-seeded per trial, so every trial computes the identical result (the
   sampler's determinism contract) and min-of-N is purely a noise filter. *)
let time_best_of ~domains ~schedule ~reads ~trials ising seed =
  let params = Sampler.make_params ~schedule ~reads () in
  let once () =
    let rng = Stats.Rng.create ~seed in
    let spins = ref [||] in
    let (), wall =
      Bench_util.wall (fun () -> spins := Sampler.sample ~params ~domains rng ising)
    in
    (wall, SI.energy ising !spins)
  in
  ignore (once ());
  let best = ref infinity and energy = ref Float.nan in
  for _ = 1 to max 1 trials do
    let wall, e = once () in
    energy := e;
    if wall < !best then best := wall
  done;
  (!best, !energy)

let cache_exercise () =
  let g = Chimera.Graph.standard_2000q () in
  let f = Workload.Uniform.uf (Stats.Rng.create ~seed:4242) 120 in
  let cache = Hyqsat.Frontend.create_cache g in
  (* 4 distinct conflict-hot queues revisited 6 times each, as warm-up
     iterations revisit the same hot clauses: 4 misses, 20 hits *)
  for round = 0 to 23 do
    let rng = Stats.Rng.create ~seed:(1000 + (round mod 4)) in
    ignore (Hyqsat.Frontend.prepare ~cache rng g f ~activity:(fun _ -> 1.0))
  done;
  Hyqsat.Frontend.cache_stats cache

let run (ctx : Bench_util.ctx) =
  Bench_util.header "Annealing-engine throughput"
    "no paper analogue; incremental-field kernel, domain-parallel reads, embedding cache";
  let repeats, sweeps = match ctx.scale with `Paper -> (40, 256) | `Small -> (10, 256) in
  let schedule = { Sampler.default_schedule with Sampler.sweeps } in
  let ising = chimera_instance ctx.seed in
  let n = ising.SI.n in
  Printf.printf "%d-spin Chimera instance, %d sweeps x %d repeats, %d core(s)\n\n" n sweeps
    repeats
    (Domain.recommended_domain_count ());
  let ref_wall, ref_fps =
    time_kernel ~anneal:reference ~schedule ~repeats ising (ctx.seed + 1)
  in
  let inc_wall, inc_fps =
    time_kernel ~anneal:incremental ~schedule ~repeats ising (ctx.seed + 1)
  in
  Printf.printf "%-14s %10s %16s\n" "kernel" "wall(s)" "flips/sec";
  Bench_util.hr ();
  Printf.printf "%-14s %10.3f %16.2e\n" "reference" ref_wall ref_fps;
  Printf.printf "%-14s %10.3f %16.2e\n" "incremental" inc_wall inc_fps;
  Printf.printf "%-14s %26.2fx  (full %g->%g schedule)\n" "speedup" (inc_fps /. ref_fps)
    schedule.Sampler.beta_min schedule.Sampler.beta_max;
  let words_per_flip = minor_words_per_flip ~schedule ising (ctx.seed + 1) in
  Printf.printf "incremental minor words per attempted flip: %.4f (bound %g)\n\n" words_per_flip
    max_minor_words_per_flip;
  let regime_betas = [ 1.0; 2.0; 4.0; 8.0 ] in
  let trials = match ctx.scale with `Paper -> 7 | `Small -> 3 in
  let regimes =
    List.map
      (fun beta ->
        let rf = time_regime ~anneal:reference ~beta ~trials ising (ctx.seed + 30) in
        let inc = time_regime ~anneal:incremental ~beta ~trials ising (ctx.seed + 30) in
        (beta, rf, inc))
      regime_betas
  in
  Printf.printf "fixed-temperature sweeps (reject-dominated sampling regime):\n";
  Printf.printf "%-10s %14s %14s %10s\n" "beta" "ref flips/s" "inc flips/s" "speedup";
  Bench_util.hr ();
  List.iter
    (fun (beta, rf, inc) ->
      Printf.printf "%-10.2f %14.2e %14.2e %9.2fx\n" beta rf inc (inc /. rf))
    regimes;
  print_newline ();
  let reads = 8 in
  let cores = Domain.recommended_domain_count () in
  let bo_trials = match ctx.scale with `Paper -> 5 | `Small -> 3 in
  let serial_wall, e_serial =
    time_best_of ~domains:1 ~schedule ~reads ~trials:bo_trials ising (ctx.seed + 2)
  in
  (* every row runs and checks its energy against the serial path, but a
     row with more domains than cores only interleaves on the available
     ones: its wall time is recorded as skipped, not as a speedup; the >1x
     gate only makes sense with real parallelism and is skipped below when
     cores < 2 *)
  let domain_counts = [ 2; 4 ] in
  let par_rows =
    List.map
      (fun d ->
        let wall, e = time_best_of ~domains:d ~schedule ~reads ~trials:bo_trials ising (ctx.seed + 2) in
        if abs_float (e_serial -. e) > 1e-9 then
          failwith "bench anneal: best-of energy differs across domain counts";
        (d, if d > cores then None else Some (wall, serial_wall /. wall)))
      domain_counts
  in
  Printf.printf "best-of-%d reads (min of %d trials): serial %.3f s (%.1f reads/s)\n" reads
    bo_trials serial_wall
    (float_of_int reads /. serial_wall);
  List.iter
    (function
      | d, Some (wall, speedup) ->
          Printf.printf "  %d domains: %.3f s (%.1f reads/s), speedup %.2fx, energies agree\n" d
            wall
            (float_of_int reads /. wall)
            speedup
      | d, None -> Printf.printf "  %d domains: skipped (cores < domains), energies agree\n" d)
    par_rows;
  if cores < 2 then
    Printf.printf "  (single-core machine: the parallel-speedup gate is skipped)\n";
  print_newline ();
  let hits, misses = cache_exercise () in
  Printf.printf "embed cache: %d hits / %d misses (%.1f %% hit rate)\n" hits misses
    (100. *. float_of_int hits /. float_of_int (max 1 (hits + misses)));
  let num = Bench_util.num in
  let per_sec wall = num (float_of_int reads /. wall) in
  let kernel wall fps = Json.Obj [ ("wall_s", num wall); ("flips_per_sec", num fps) ] in
  (* the best timed row keeps the schema-1 summary fields alive: the CI
     trend reader and the speedup gate both look at [parallel_speedup];
     with no timed row the summary is the serial row *)
  let best_d, best_wall, best_speedup =
    List.fold_left
      (fun (bd, bw, bs) -> function
        | d, Some (w, s) when s > bs -> (d, w, s)
        | _ -> (bd, bw, bs))
      (1, serial_wall, 1.0) par_rows
  in
  Bench_util.write_json ctx "anneal"
    [
      ("n_spins", Int n);
      ("sweeps", Int sweeps);
      ("repeats", Int repeats);
      ("reference", kernel ref_wall ref_fps);
      ( "incremental",
        Obj
          [
            ("wall_s", num inc_wall);
            ("flips_per_sec", num inc_fps);
            ("minor_words_per_flip", num words_per_flip);
          ] );
      ("kernel_speedup", num (inc_fps /. ref_fps));
      ( "regimes",
        Arr
          (List.map
             (fun (beta, rf, inc) ->
               Json.Obj
                 [
                   ("beta", num beta);
                   ("reference_flips_per_sec", num rf);
                   ("incremental_flips_per_sec", num inc);
                   ("speedup", num (inc /. rf));
                 ])
             regimes) );
      ( "best_of",
        Obj
          [
            ("reads", Int reads);
            ("trials", Int bo_trials);
            ("serial_wall_s", num serial_wall);
            ("reads_per_sec_serial", per_sec serial_wall);
            ( "parallel",
              Arr
                (List.map
                   (function
                     | d, Some (w, s) ->
                         Json.Obj
                           [
                             ("domains", Int d);
                             ("wall_s", num w);
                             ("speedup", num s);
                             ("reads_per_sec", per_sec w);
                           ]
                     | d, None -> Obj [ ("domains", Int d); ("skipped", Str "cores < domains") ])
                   par_rows) );
            ("parallel_domains", Int best_d);
            ("parallel_wall_s", num best_wall);
            ("parallel_speedup", num best_speedup);
            ("reads_per_sec_parallel", per_sec best_wall);
          ] );
      ( "embed_cache",
        Obj
          [
            ("hits", Int hits);
            ("misses", Int misses);
            ("hit_rate", num (float_of_int hits /. float_of_int (max 1 (hits + misses))));
          ] );
      ("floor_flips_per_sec", num floor_flips_per_sec);
      ("max_minor_words_per_flip", num max_minor_words_per_flip);
    ];
  if words_per_flip > max_minor_words_per_flip then begin
    Printf.eprintf
      "bench anneal: ALLOCATION REGRESSION — incremental kernel allocates %.3f minor words per \
       attempted flip, above the bound of %g\n"
      words_per_flip max_minor_words_per_flip;
    exit 1
  end;
  if inc_fps < floor_flips_per_sec /. 2.0 then begin
    Printf.eprintf
      "bench anneal: PERF REGRESSION — incremental kernel at %.2e flips/s, more than 2x below \
       the committed floor of %.2e\n"
      inc_fps floor_flips_per_sec;
    exit 1
  end;
  (* parallel-speedup gate: on a multicore machine, best-of through the
     persistent pool must beat the serial path at some domain count — this
     is exactly the regression the pool rework fixed (spawn/join per QA
     call made 4 domains 4x *slower* than serial) *)
  let best_speedup =
    List.fold_left
      (fun acc (_, timed) -> match timed with Some (_, s) -> Float.max acc s | None -> acc)
      0. par_rows
  in
  if cores >= 2 && best_speedup <= 1.0 then begin
    Printf.eprintf
      "bench anneal: PERF REGRESSION — parallel best-of speedup %.2fx <= 1.0 on %d cores; \
       the domain pool is slower than the serial path\n"
      best_speedup cores;
    exit 1
  end
