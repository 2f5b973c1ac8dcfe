(* Tests for the annealing simulator stack. *)

module SI = Anneal.Sparse_ising
module Sampler = Anneal.Sampler
module Noise = Anneal.Noise
module Timing = Anneal.Timing
module Machine = Anneal.Machine

let fcheck = Alcotest.(check (float 1e-9))

let sparse_ising_energy () =
  (* E = 0.5 + 1·s0 - 2·s1 + 3·s0s1 *)
  let ising = SI.build ~n:2 ~h:[| 1.; -2. |] ~couplings:[ ((0, 1), 3.) ] ~offset:0.5 in
  fcheck "++" 2.5 (SI.energy ising [| 1; 1 |]);
  fcheck "+-" 0.5 (SI.energy ising [| 1; -1 |]);
  fcheck "-+" (-5.5) (SI.energy ising [| -1; 1 |]);
  fcheck "--" 4.5 (SI.energy ising [| -1; -1 |]);
  fcheck "field on 0 at s1=+1" 4.0 (SI.local_field ising [| 1; 1 |] 0);
  fcheck "field on 1" 1.0 (SI.local_field ising [| 1; 1 |] 1)

let sparse_ising_duplicate_couplings () =
  let ising = SI.build ~n:2 ~h:[| 0.; 0. |] ~couplings:[ ((0, 1), 1.); ((1, 0), 1.) ] ~offset:0. in
  fcheck "accumulated" 2.0 (SI.energy ising [| 1; 1 |])

let sampler_finds_ground_state () =
  (* frustration-free chain: ground state all spins down (h > 0) *)
  let n = 30 in
  let h = Array.make n 0.5 in
  let couplings = List.init (n - 1) (fun i -> ((i, i + 1), -1.0)) in
  let ising = SI.build ~n ~h ~couplings ~offset:0. in
  let rng = Testutil.rng 3 in
  let spins = Sampler.sample rng ising in
  Alcotest.(check bool) "ground state reached" true (Array.for_all (fun s -> s = -1) spins)

let sampler_best_of_improves () =
  let r = Testutil.rng 5 in
  (* random spin glass: best-of-k energy must be <= single-sample energy on average *)
  let n = 40 in
  let h = Array.init n (fun _ -> Stats.Rng.gaussian r ~mu:0. ~sigma:1.) in
  let couplings =
    List.concat
      (List.init (n - 1) (fun i -> [ ((i, i + 1), Stats.Rng.gaussian r ~mu:0. ~sigma:1.) ]))
  in
  let ising = SI.build ~n ~h ~couplings ~offset:0. in
  let single =
    let params = Sampler.make_params ~schedule:Sampler.quick_schedule () in
    Stats.Descriptive.mean
      (Array.init 20 (fun _ -> SI.energy ising (Sampler.sample ~params r ising)))
  in
  let best =
    let params = Sampler.make_params ~schedule:Sampler.quick_schedule ~reads:8 () in
    Stats.Descriptive.mean
      (Array.init 20 (fun _ -> SI.energy ising (Sampler.sample ~params r ising)))
  in
  Alcotest.(check bool) "best-of-k at least as good" true (best <= single +. 1e-9)

let noise_perturbs_coefficients () =
  let ising = SI.build ~n:2 ~h:[| 1.; 1. |] ~couplings:[ ((0, 1), 0.5) ] ~offset:0. in
  let rng = Testutil.rng 7 in
  let noisy = Noise.apply_coeff { Noise.noise_free with Noise.coeff_sigma = 0.1 } rng ising in
  Alcotest.(check bool) "h changed" true
    (noisy.SI.h.(0) <> 1.0 || noisy.SI.h.(1) <> 1.0);
  let clean = Noise.apply_coeff Noise.noise_free rng ising in
  Alcotest.(check bool) "noise-free shares" true (clean == ising)

let noise_readout_flips () =
  let rng = Testutil.rng 9 in
  let spins = Array.make 1000 1 in
  let flipped = Noise.apply_readout (Noise.bit_flip_only 0.5) rng spins in
  let n_flipped = Array.fold_left (fun acc s -> if s = -1 then acc + 1 else acc) 0 flipped in
  Alcotest.(check bool) "roughly half flipped" true (n_flipped > 350 && n_flipped < 650);
  let same = Noise.apply_readout Noise.noise_free rng spins in
  Alcotest.(check bool) "no flips when off" true (Array.for_all (fun s -> s = 1) same)

let timing_formulas () =
  let t = Timing.d_wave_2000q in
  fcheck "single sample" 138. (Timing.single_sample_us t);
  (* the Fig 1 formula: (20+110)*60 + 20*59 + programming *)
  fcheck "60 samples" ((130. *. 60.) +. (20. *. 59.) +. 8.) (Timing.multi_sample_us t ~samples:60)

(* end-to-end: embed a small clause set, anneal noise-free, energy 0 and a
   satisfying assignment for a satisfiable queue *)
let machine_on_satisfiable_queue () =
  let g = Chimera.Graph.standard_2000q () in
  let rng = Testutil.rng 11 in
  let clauses =
    [
      Sat.Clause.of_dimacs [ 1; 2; 3 ];
      Sat.Clause.of_dimacs [ -1; 2; 4 ];
      Sat.Clause.of_dimacs [ -2; -3; 5 ];
      Sat.Clause.of_dimacs [ 1; -4; 5 ];
    ]
  in
  let enc = Qubo.Encode.encode ~num_vars:5 clauses in
  let res = Testutil.embed_encoded g enc in
  Alcotest.(check int) "all clauses embedded" 4 res.Embed.Hyqsat_scheme.embedded_clauses;
  let job =
    {
      Machine.embedding = res.Embed.Hyqsat_scheme.embedding;
      objective = Qubo.Encode.objective enc;
      edges = res.Embed.Hyqsat_scheme.edges;
    }
  in
  let outcome = Machine.run rng job in
  Alcotest.(check bool) "no chain breaks noise-free" true (outcome.Machine.chain_breaks = 0);
  fcheck "zero energy" 0.0 outcome.Machine.energy;
  (* the assignment restricted to original vars satisfies the clauses *)
  let x = Array.make 5 false in
  List.iter (fun (node, v) -> if node < 5 then x.(node) <- v) outcome.Machine.assignment;
  Alcotest.(check bool) "clauses satisfied" true (Qubo.Encode.clauses_satisfied enc x)

let machine_on_unsat_queue () =
  (* {x1, ¬x1} forces energy ≥ 1 whatever the sample *)
  let g = Chimera.Graph.create ~rows:4 ~cols:4 in
  let rng = Testutil.rng 13 in
  let clauses = [ Sat.Clause.of_dimacs [ 1 ]; Sat.Clause.of_dimacs [ -1 ] ] in
  let enc = Qubo.Encode.encode ~num_vars:1 clauses in
  let res = Testutil.embed_encoded g enc in
  Alcotest.(check int) "embedded" 2 res.Embed.Hyqsat_scheme.embedded_clauses;
  let job =
    {
      Machine.embedding = res.Embed.Hyqsat_scheme.embedding;
      objective = Qubo.Encode.objective enc;
      edges = res.Embed.Hyqsat_scheme.edges;
    }
  in
  let outcome = Machine.run rng job in
  Alcotest.(check bool) "energy >= 1" true (outcome.Machine.energy >= 1.0 -. 1e-9)

let machine_noise_raises_energy_spread () =
  let g = Chimera.Graph.standard_2000q () in
  let clauses =
    List.init 12 (fun i ->
        Sat.Clause.make
          [ Sat.Lit.pos (i mod 6); Sat.Lit.neg_of ((i + 1) mod 6); Sat.Lit.pos ((i + 3) mod 6) ])
  in
  let enc = Qubo.Encode.encode ~num_vars:6 clauses in
  let res = Testutil.embed_encoded g enc in
  let job =
    {
      Machine.embedding = res.Embed.Hyqsat_scheme.embedding;
      objective = Qubo.Encode.objective enc;
      edges = res.Embed.Hyqsat_scheme.edges;
    }
  in
  let energies noise seed =
    let rng = Testutil.rng seed in
    Array.init 30 (fun _ -> (Machine.run ~noise rng job).Machine.energy)
  in
  let clean = energies Noise.noise_free 17 in
  let noisy = energies Noise.default_2000q 17 in
  Alcotest.(check bool) "noisy mean >= clean mean" true
    (Stats.Descriptive.mean noisy >= Stats.Descriptive.mean clean -. 1e-9)

let machine_rejects_unembedded () =
  let g = Chimera.Graph.create ~rows:2 ~cols:2 in
  let obj = Qubo.Pbq.create () in
  Qubo.Pbq.add_linear obj 0 1.0;
  let job = { Machine.embedding = Embed.Embedding.create g; objective = obj; edges = [] } in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Machine.run (Testutil.rng 1) job);
       false
     with Machine.Unembedded_term _ -> true)

let sampler_respects_init () =
  (* with an empty schedule-budget the init must pass through untouched at
     zero temperature... closest observable: a strongly ferromagnetic pair
     seeded aligned stays aligned *)
  let ising = SI.build ~n:2 ~h:[| 0.; 0. |] ~couplings:[ ((0, 1), -4.0) ] ~offset:0. in
  let rng = Testutil.rng 19 in
  let spins =
    Sampler.sample
      ~params:
        (Sampler.make_params ~schedule:{ Sampler.sweeps = 30; beta_min = 2.0; beta_max = 20.0 } ())
      ~init:[| 1; 1 |] rng ising
  in
  Alcotest.(check bool) "stays aligned" true (spins.(0) = spins.(1))

let sampler_init_length_checked () =
  let ising = SI.build ~n:3 ~h:[| 0.; 0.; 0. |] ~couplings:[] ~offset:0. in
  Alcotest.(check bool) "bad init rejected" true
    (try
       ignore (Sampler.sample ~init:[| 1 |] (Testutil.rng 1) ising);
       false
     with Invalid_argument _ -> true)

(* ---- incremental kernel ---- *)

(* irregular connected instances: a coupled chain plus random extra edges,
   Gaussian coefficients *)
let random_ising r =
  let n = 5 + Stats.Rng.int r 56 in
  let h = Array.init n (fun _ -> Stats.Rng.gaussian r ~mu:0. ~sigma:1.) in
  let chain = List.init (n - 1) (fun i -> ((i, i + 1), Stats.Rng.gaussian r ~mu:0. ~sigma:1.)) in
  let extra =
    List.init n (fun _ ->
        ((Stats.Rng.int r n, Stats.Rng.int r n), Stats.Rng.gaussian r ~mu:0. ~sigma:1.))
    |> List.filter (fun ((i, j), _) -> i <> j)
  in
  SI.build ~n ~h ~couplings:(chain @ extra) ~offset:0.

(* the incremental kernel must be a pure optimisation: identical spins to
   the oracle's field-recomputing sweep for identical seeds, across
   instances and schedules *)
let kernel_matches_reference () =
  let r = Testutil.rng 29 in
  for case = 1 to 20 do
    let ising = random_ising r in
    let schedule = if case mod 2 = 0 then Sampler.default_schedule else Sampler.quick_schedule in
    let seed = 1000 + case in
    let s_ref = Oracle.Anneal_sweep.sample ~schedule (Testutil.rng seed) ising in
    let s_inc =
      Sampler.sample ~params:(Sampler.make_params ~schedule ()) (Testutil.rng seed) ising
    in
    Alcotest.(check (array int))
      (Printf.sprintf "case %d (n=%d)" case ising.SI.n)
      s_ref s_inc
  done

(* An attempted flip allocates nothing: the Metropolis uniform is drawn
   unboxed, so a 2000Q-sized anneal's minor-heap traffic is the per-call
   set-up only.  Boxing the draw costs ~3.7 words per attempted flip. *)
let kernel_allocation_free () =
  let g = Chimera.Graph.standard_2000q () in
  let r = Testutil.rng 71 in
  let n = Chimera.Graph.num_qubits g in
  let h = Array.init n (fun _ -> Stats.Rng.gaussian r ~mu:0. ~sigma:1.) in
  let couplings = ref [] in
  Chimera.Graph.iter_couplers g (fun i j ->
      couplings := ((i, j), Stats.Rng.gaussian r ~mu:0. ~sigma:1.) :: !couplings);
  let ising = SI.build ~n ~h ~couplings:!couplings ~offset:0. in
  let schedule = Sampler.default_schedule in
  let params = Sampler.make_params ~schedule ~reads:1 () in
  let rng = Testutil.rng 73 in
  let before = Gc.minor_words () in
  ignore (Sampler.sample ~params rng ising);
  let words = Gc.minor_words () -. before in
  let per_flip = words /. float_of_int (schedule.Sampler.sweeps * n) in
  if per_flip >= 0.25 then
    Alcotest.failf "%.3f minor words per attempted flip (%.0f words), bound 0.25" per_flip words

(* the field invariant survives a long random flip sequence *)
let kernel_field_invariant () =
  let r = Testutil.rng 31 in
  let ising = random_ising r in
  let n = ising.SI.n in
  let spins = Array.init n (fun _ -> if Stats.Rng.bool r then 1 else -1) in
  let k = Anneal.Kernel.init ising spins in
  for _ = 1 to 1000 do
    Anneal.Kernel.flip k (Stats.Rng.int r n)
  done;
  Alcotest.(check int) "accepted counts flips" 1000 (Anneal.Kernel.accepted k);
  let spins = Anneal.Kernel.spins k in
  for i = 0 to n - 1 do
    let fresh = SI.local_field ising spins i in
    Alcotest.(check (float 1e-6)) (Printf.sprintf "field %d" i) fresh (Anneal.Kernel.field k i);
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "delta %d" i)
      (-2.0 *. float_of_int spins.(i) *. fresh)
      (Anneal.Kernel.delta k i)
  done

(* best-of-k is a pure function of (rng seed, k): any domain count, on the
   default shared pool or an explicit persistent one of any size, returns
   the same spins — chunks cover ascending read ranges and the reduce is a
   strict minimum, so "lowest-index minimal-energy read wins" is preserved *)
let best_of_deterministic_across_domains () =
  let ising = random_ising (Testutil.rng 37) in
  let run ?pool domains =
    Sampler.sample
      ~params:(Sampler.make_params ~schedule:Sampler.quick_schedule ~reads:8 ())
      ?pool ~domains (Testutil.rng 41) ising
  in
  let serial = run 1 in
  Alcotest.(check (array int)) "2 domains" serial (run 2);
  Alcotest.(check (array int)) "4 domains" serial (run 4);
  Alcotest.(check (array int)) "8 domains (more than reads/cores)" serial (run 8);
  let pool = Parallel.Pool.create ~workers:3 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check (array int)) "explicit pool, 2 domains" serial (run ~pool 2);
      Alcotest.(check (array int)) "explicit pool, 4 domains" serial (run ~pool 4);
      (* the same pool again: results don't depend on pool history *)
      Alcotest.(check (array int)) "explicit pool, reused" serial (run ~pool 4));
  Alcotest.(check (float 1e-9)) "energy agrees" (SI.energy ising serial)
    (SI.energy ising (run 4))

let counter ctx name =
  match List.assoc_opt name (Obs.Ctx.snapshot ctx) with
  | Some (Obs.Ctx.Counter { count }) -> int_of_float count
  | _ -> Alcotest.failf "missing counter %s" name

let best_of_threads_obs_and_init () =
  let ising = random_ising (Testutil.rng 43) in
  let n = ising.SI.n in
  (* a zero-sweep schedule returns the init untouched, whichever read wins *)
  let init = Array.init n (fun i -> if i mod 2 = 0 then 1 else -1) in
  let frozen = { Sampler.sweeps = 0; beta_min = 1.0; beta_max = 1.0 } in
  let spins =
    Sampler.sample
      ~params:(Sampler.make_params ~schedule:frozen ~reads:3 ())
      ~init (Testutil.rng 47) ising
  in
  Alcotest.(check (array int)) "init passes through" init spins;
  (* counters aggregate across reads *)
  let ctx = Obs.Ctx.create () in
  let sched = { Sampler.quick_schedule with Sampler.sweeps = 3 } in
  ignore
    (Sampler.sample ~obs:ctx
       ~params:(Sampler.make_params ~schedule:sched ~reads:4 ())
       ~domains:2 (Testutil.rng 53) ising);
  Alcotest.(check int) "sweeps = k * schedule" 12 (counter ctx "anneal_sweeps_total");
  Alcotest.(check int) "reads counted" 4 (counter ctx "anneal_reads_total");
  Alcotest.(check bool) "accepted flips counted" true
    (counter ctx "anneal_accepted_flips_total" > 0);
  Obs.Ctx.close ctx

let best_of_rejects_bad_k () =
  let ising = random_ising (Testutil.rng 59) in
  Alcotest.(check bool) "reads = 0 rejected" true
    (try
       ignore
         (Sampler.sample ~params:(Sampler.make_params ~reads:0 ()) (Testutil.rng 1) ising);
       false
     with Invalid_argument _ -> true)

let machine_postprocess_off_keeps_soundness () =
  (* postprocess off: energies may be worse, never negative-impossible, and
     the assignment is still a real assignment of the objective *)
  let g = Chimera.Graph.standard_2000q () in
  let rng = Testutil.rng 23 in
  let clauses =
    [ Sat.Clause.of_dimacs [ 1; 2; 3 ]; Sat.Clause.of_dimacs [ -1; -2; 4 ] ]
  in
  let enc = Qubo.Encode.encode ~num_vars:4 clauses in
  let res = Testutil.embed_encoded g enc in
  let job =
    {
      Machine.embedding = res.Embed.Hyqsat_scheme.embedding;
      objective = Qubo.Encode.objective enc;
      edges = res.Embed.Hyqsat_scheme.edges;
    }
  in
  let o = Machine.run ~postprocess:false rng job in
  let lookup = o.Machine.assignment in
  let e =
    Qubo.Pbq.eval job.Machine.objective (fun v -> List.assoc v lookup)
  in
  Alcotest.(check (float 1e-6)) "reported energy consistent" e o.Machine.energy;
  Alcotest.(check bool) "non-negative for penalty objectives" true (e >= -1e-9)

let suite =
  [
    ( "anneal.sparse_ising",
      [
        Alcotest.test_case "energy" `Quick sparse_ising_energy;
        Alcotest.test_case "duplicate couplings" `Quick sparse_ising_duplicate_couplings;
      ] );
    ( "anneal.sampler",
      [
        Alcotest.test_case "ground state" `Quick sampler_finds_ground_state;
        Alcotest.test_case "best-of improves" `Quick sampler_best_of_improves;
        Alcotest.test_case "respects init" `Quick sampler_respects_init;
        Alcotest.test_case "init length checked" `Quick sampler_init_length_checked;
      ] );
    ( "anneal.noise",
      [
        Alcotest.test_case "coefficients" `Quick noise_perturbs_coefficients;
        Alcotest.test_case "readout" `Quick noise_readout_flips;
      ] );
    ( "anneal.kernel",
      [
        Alcotest.test_case "matches reference per seed" `Quick kernel_matches_reference;
        Alcotest.test_case "field invariant after 1k flips" `Quick kernel_field_invariant;
        Alcotest.test_case "allocation-free sweep" `Quick kernel_allocation_free;
        Alcotest.test_case "best-of deterministic across domains" `Quick
          best_of_deterministic_across_domains;
        Alcotest.test_case "best-of threads obs and init" `Quick best_of_threads_obs_and_init;
        Alcotest.test_case "best-of rejects k=0" `Quick best_of_rejects_bad_k;
      ] );
    ("anneal.timing", [ Alcotest.test_case "formulas" `Quick timing_formulas ]);
    ( "anneal.machine",
      [
        Alcotest.test_case "satisfiable queue" `Quick machine_on_satisfiable_queue;
        Alcotest.test_case "unsat queue" `Quick machine_on_unsat_queue;
        Alcotest.test_case "noise raises energy" `Quick machine_noise_raises_energy_spread;
        Alcotest.test_case "rejects unembedded" `Quick machine_rejects_unembedded;
        Alcotest.test_case "postprocess off soundness" `Quick machine_postprocess_off_keeps_soundness;
      ] );
  ]
