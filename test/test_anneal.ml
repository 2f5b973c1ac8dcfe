(* Tests for the annealing simulator stack. *)

module SI = Anneal.Sparse_ising
module Sampler = Anneal.Sampler
module Noise = Anneal.Noise
module Timing = Anneal.Timing
module Machine = Anneal.Machine

let fcheck = Alcotest.(check (float 1e-9))

(* a shallower schedule than the device's, 96 sweeps from β 0.1 to 8: the
   golden cycle's first pinned values came from a noisy device on it *)
let shallow = { Sampler.sweeps = 96; beta_min = 0.1; beta_max = 8.0 }

(* one annealing cycle, by default on the infallible simulator *)
let run_via ?obs ?noise ?(sample = Anneal.Backend.sample Anneal.Backend.best_of) rng job =
  match Machine.run_via ?obs ?noise ~sample rng job with
  | Ok outcome -> outcome
  | Error f -> Alcotest.fail (Anneal.Backend.failure_label f)

let counter ctx name =
  match List.assoc_opt name (Obs.Ctx.snapshot ctx) with
  | Some (Obs.Ctx.Counter { count }) -> int_of_float count
  | _ -> Alcotest.failf "missing counter %s" name

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
  let spins = Sampler.sample ~schedule:Sampler.default_schedule rng ising in
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
  let mean_energy reads =
    Baselines.Descriptive.mean
      (Array.init 20 (fun _ -> SI.energy ising (Sampler.sample ~reads ~schedule:shallow r ising)))
  in
  let single = mean_energy 1 in
  let best = mean_energy 8 in
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
    }
  in
  let outcome = run_via rng job in
  Alcotest.(check bool) "no chain breaks noise-free" true (outcome.Machine.chain_breaks = 0);
  fcheck "zero energy" 0.0 outcome.Machine.energy;
  (* the assignment restricted to original vars satisfies the clauses *)
  let x = Array.make 5 false in
  List.iter (fun (node, v) -> if node < 5 then x.(node) <- v) outcome.Machine.assignment;
  Alcotest.(check bool) "clauses satisfied" true (Baselines.Gap.clauses_satisfied enc x)

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
    }
  in
  let outcome = run_via rng job in
  Alcotest.(check bool) "energy >= 1" true (outcome.Machine.energy >= 1.0 -. 1e-9)

(* 12 cyclically overlapping clauses over 6 variables, embedded whole *)
let cyclic_job () =
  let g = Chimera.Graph.standard_2000q () in
  let clauses =
    List.init 12 (fun i ->
        Sat.Clause.make
          [ Sat.Lit.pos (i mod 6); Sat.Lit.neg_of ((i + 1) mod 6); Sat.Lit.pos ((i + 3) mod 6) ])
  in
  let enc = Qubo.Encode.encode ~num_vars:6 clauses in
  let res = Testutil.embed_encoded g enc in
  {
    Machine.embedding = res.Embed.Hyqsat_scheme.embedding;
    objective = Qubo.Encode.objective enc;
  }

let machine_noise_raises_energy_spread () =
  let job = cyclic_job () in
  (* the device's own energy, before the host-side repair: noise acts on
     the device, while the repair takes both sides to ~0 *)
  let energies noise seed =
    let rng = Testutil.rng seed in
    Array.init 30 (fun _ -> (run_via ~noise rng job).Machine.physical_energy)
  in
  let clean = energies Noise.noise_free 17 in
  let noisy = energies Noise.default_2000q 17 in
  Alcotest.(check bool) "noisy mean > clean mean" true
    (Baselines.Descriptive.mean noisy > Baselines.Descriptive.mean clean)

(* the repair's logical anneal runs [max 8 (spins / 2)] sweeps; the bare
   device call gets no [obs], so only the repair counts sweeps *)
let machine_post_process_depth () =
  let job = cyclic_job () in
  let spins = List.length (Qubo.Pbq.vars job.Machine.objective) in
  let ctx = Obs.Ctx.create () in
  ignore (run_via ~obs:ctx (Testutil.rng 19) job);
  Alcotest.(check int) "post-process sweeps" (max 8 (spins / 2))
    (counter ctx "anneal_sweeps_total");
  Obs.Ctx.close ctx

(* One seeded noisy cycle on an adjusted objective, pinned bit for bit: the
   physical build, the device call, the unembedding and the host-side repair
   all feed these numbers, so any change in the order of a float sum or of
   the coupling list shows here *)
let golden_job () =
  let g = Chimera.Graph.standard_2000q () in
  let r = Testutil.rng 41 in
  let clauses = List.init 60 (fun _ -> Testutil.random_clause r ~n:20 ~k:3) in
  let enc = Qubo.Encode.encode ~num_vars:20 clauses in
  let res = Testutil.embed_encoded g enc in
  let embedded = res.Embed.Hyqsat_scheme.embedded_clauses in
  let enc' = Qubo.Encode.encode ~num_vars:20 (List.filteri (fun i _ -> i < embedded) clauses) in
  {
    Machine.embedding = res.Embed.Hyqsat_scheme.embedding;
    objective = Qubo.Adjust.adjust enc';
  }

let check_golden o ~energy_bits ~physical_energy ~chain_breaks ~assignment =
  Alcotest.(check int64) "energy bits" energy_bits (Int64.bits_of_float o.Machine.energy);
  Alcotest.(check int64) "physical energy bits" (Int64.bits_of_float physical_energy)
    (Int64.bits_of_float o.Machine.physical_energy);
  Alcotest.(check int) "chain breaks" chain_breaks o.Machine.chain_breaks;
  Alcotest.(check (list int)) "nodes" (List.init 74 Fun.id) (List.map fst o.Machine.assignment);
  Alcotest.(check string) "assignment" assignment
    (String.concat "" (List.map (fun (_, v) -> if v then "1" else "0") o.Machine.assignment))

(* pinned on the device's schedule (32 sweeps): a change of the device's
   depth re-pins it *)
let machine_golden_outcome () =
  let o = run_via ~noise:Noise.default_2000q (Testutil.rng 43) (golden_job ()) in
  check_golden o ~energy_bits:(-4820258976169984000L) ~physical_energy:(-866.51264231499226)
    ~chain_breaks:4
    ~assignment:"11100111111000111100111111011111111111111111111111101110111111011111011011"

(* the simulator on [shallow] instead of the device's schedule, with the
   request's noise and reads *)
let shallow_device rng (req : Anneal.Backend.request) =
  let open Anneal.Backend in
  let spins =
    Sampler.sample ~noise:req.noise ~reads:req.reads ?init:req.init ~domains:req.domains
      ~schedule:shallow rng req.ising
  in
  Ok { spins; energy = SI.energy req.ising spins; time_us = model_time_us req }

(* the golden cycle as first pinned, when the noisy device ran [shallow]:
   driving that schedule through [~sample] gives the old values back, so
   the schedule is all that moved them *)
let machine_golden_outcome_on_shallow_schedule () =
  let o =
    run_via ~noise:Noise.default_2000q ~sample:shallow_device (Testutil.rng 43) (golden_job ())
  in
  check_golden o ~energy_bits:4607182418800016934L ~physical_energy:(-839.59447097561213)
    ~chain_breaks:5
    ~assignment:"01100011111100001110111101011111111111111111111111111110111111011111111111"

(* noise acts only through coefficients and readout: a clean and a noisy
   cycle on one job anneal equally deep, device and repair together *)
let machine_noise_keeps_schedule () =
  let job = cyclic_job () in
  let sweeps noise =
    let ctx = Obs.Ctx.create () in
    let sample = Anneal.Backend.sample ~obs:ctx Anneal.Backend.best_of in
    ignore (run_via ~obs:ctx ~noise ~sample (Testutil.rng 23) job);
    let n = counter ctx "anneal_sweeps_total" in
    Obs.Ctx.close ctx;
    n
  in
  let spins = List.length (Qubo.Pbq.vars job.Machine.objective) in
  let clean = sweeps Noise.noise_free in
  Alcotest.(check int) "device and repair sweeps"
    (Sampler.default_schedule.Sampler.sweeps + max 8 (spins / 2))
    clean;
  Alcotest.(check int) "noisy equals clean" clean (sweeps Noise.default_2000q)

(* a variable outside the placement, and an edge whose chains touch (qubits
   0 and 4 share a cell's coupler) but that registers no coupler *)
let machine_rejects_unembedded () =
  let g = Chimera.Graph.create ~rows:2 ~cols:2 in
  let raises what ~chains objective =
    let embedding = Embed.Embedding.make g ~chains ~couplers:[] in
    Alcotest.(check bool) what true
      (try
         ignore (run_via (Testutil.rng 1) { Machine.embedding; objective });
         false
       with Machine.Unembedded_term _ -> true)
  in
  let obj = Qubo.Pbq.create () in
  Qubo.Pbq.add_linear obj 0 1.0;
  raises "variable outside the placement" ~chains:[] obj;
  let edge = Qubo.Pbq.create () in
  Qubo.Pbq.add_quad edge 0 1 1.0;
  raises "edge without a registered coupler" ~chains:[ (0, [ 0 ]); (1, [ 4 ]) ] edge

(* the QUBO ↔ Ising transform: the spin form's energy equals the QUBO's at
   every assignment, x = (1 + s)/2 *)
let ising_roundtrip =
  QCheck.Test.make ~name:"ising energy equals qubo energy" ~count:100 Testutil.small_cnf_arb
    (fun f ->
      let enc = Qubo.Encode.encode ~num_vars:(Sat.Cnf.num_vars f) (Sat.Cnf.clauses f) in
      let q = Qubo.Encode.objective enc in
      let vars = Array.of_list (Qubo.Pbq.vars q) in
      let spin v =
        let rec find i = if vars.(i) = v then i else find (i + 1) in
        find 0
      in
      let n = Array.length vars in
      let h, couplings, offset = SI.of_qubo q ~n ~spin in
      let ising = SI.build ~n ~h ~couplings ~offset in
      let r = Testutil.rng 99 in
      let ok = ref true in
      for _ = 1 to 20 do
        let bools = Array.init enc.Qubo.Encode.num_total_vars (fun _ -> Stats.Rng.bool r) in
        let spins = Array.map (fun v -> if bools.(v) then 1 else -1) vars in
        let eq = Qubo.Pbq.eval q (Array.get bools) and ei = SI.energy ising spins in
        if Float.abs (eq -. ei) > 1e-6 then ok := false
      done;
      !ok)

let sampler_respects_init () =
  (* with an empty schedule-budget the init must pass through untouched at
     zero temperature... closest observable: a strongly ferromagnetic pair
     seeded aligned stays aligned *)
  let ising = SI.build ~n:2 ~h:[| 0.; 0. |] ~couplings:[ ((0, 1), -4.0) ] ~offset:0. in
  let rng = Testutil.rng 19 in
  let spins =
    Sampler.sample
      ~schedule:{ Sampler.sweeps = 30; beta_min = 2.0; beta_max = 20.0 }
      ~init:[| 1; 1 |] rng ising
  in
  Alcotest.(check bool) "stays aligned" true (spins.(0) = spins.(1))

let sampler_init_length_checked () =
  let ising = SI.build ~n:3 ~h:[| 0.; 0.; 0. |] ~couplings:[] ~offset:0. in
  Alcotest.(check bool) "bad init rejected" true
    (try
       ignore
         (Sampler.sample ~schedule:Sampler.default_schedule ~init:[| 1 |] (Testutil.rng 1) ising);
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
    let schedule =
      if case mod 2 = 0 then Sampler.default_schedule
      else { Sampler.sweeps = 96; beta_min = 0.1; beta_max = 8.0 }
    in
    let seed = 1000 + case in
    let s_ref = Oracle.Anneal_sweep.sample ~schedule (Testutil.rng seed) ising in
    let s_inc = Sampler.sample ~schedule (Testutil.rng seed) ising in
    Alcotest.(check (array int))
      (Printf.sprintf "case %d (n=%d)" case ising.SI.n)
      s_ref s_inc
  done

(* An attempted flip allocates nothing: the Metropolis uniform is drawn
   unboxed.  The window holds only [Kernel.sweep] calls on a kernel built
   before it, over a fixed β 0.1 → 16 ladder of [sweeps] sweeps, so the
   figure measures the sweep whatever depth the device anneals.  Boxing
   the draw costs ~3.7 words per attempted flip. *)
let kernel_allocation_free () =
  let g = Chimera.Graph.standard_2000q () in
  let r = Testutil.rng 71 in
  let n = Chimera.Graph.num_qubits g in
  let h = Array.init n (fun _ -> Stats.Rng.gaussian r ~mu:0. ~sigma:1.) in
  let couplings = ref [] in
  Chimera.Graph.iter_couplers g (fun i j ->
      couplings := ((i, j), Stats.Rng.gaussian r ~mu:0. ~sigma:1.) :: !couplings);
  let ising = SI.build ~n ~h ~couplings:!couplings ~offset:0. in
  let rng = Testutil.rng 73 in
  let sweeps = 16 in
  let betas =
    Array.init sweeps (fun i -> 0.1 *. (160. ** (float_of_int i /. float_of_int (sweeps - 1))))
  in
  let k = Anneal.Kernel.init ising (Array.init n (fun _ -> if Stats.Rng.bool rng then 1 else -1)) in
  let before = Gc.minor_words () in
  for i = 0 to sweeps - 1 do
    Anneal.Kernel.sweep k ~beta:betas.(i) rng
  done;
  let words = Gc.minor_words () -. before in
  let per_flip = words /. float_of_int (sweeps * n) in
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

(* best-of-k is a pure function of (rng seed, k): any domain count returns
   the same spins — chunks cover ascending read ranges and the reduce is a
   strict minimum, so "lowest-index minimal-energy read wins" is preserved *)
let best_of_deterministic_across_domains () =
  let ising = random_ising (Testutil.rng 37) in
  let run domains = Sampler.sample ~reads:8 ~domains ~schedule:shallow (Testutil.rng 41) ising in
  let serial = run 1 in
  Alcotest.(check (array int)) "2 domains" serial (run 2);
  Alcotest.(check (array int)) "4 domains" serial (run 4);
  Alcotest.(check (array int)) "8 domains (more than reads/cores)" serial (run 8);
  Alcotest.(check (float 1e-9)) "energy agrees" (SI.energy ising serial)
    (SI.energy ising (run 4))

let best_of_threads_obs_and_init () =
  let ising = random_ising (Testutil.rng 43) in
  let n = ising.SI.n in
  (* a zero-sweep schedule returns the init untouched, whichever read wins *)
  let init = Array.init n (fun i -> if i mod 2 = 0 then 1 else -1) in
  let frozen = { Sampler.sweeps = 0; beta_min = 1.0; beta_max = 1.0 } in
  let spins = Sampler.sample ~reads:3 ~init ~schedule:frozen (Testutil.rng 47) ising in
  Alcotest.(check (array int)) "init passes through" init spins;
  (* counters aggregate across reads *)
  let ctx = Obs.Ctx.create () in
  let schedule = { shallow with Sampler.sweeps = 3 } in
  ignore (Sampler.sample ~obs:ctx ~reads:4 ~domains:2 ~schedule (Testutil.rng 53) ising);
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
         (Sampler.sample ~reads:0 ~schedule:Sampler.default_schedule (Testutil.rng 1) ising);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    ( "anneal.sparse_ising",
      [
        Alcotest.test_case "energy" `Quick sparse_ising_energy;
        Alcotest.test_case "duplicate couplings" `Quick sparse_ising_duplicate_couplings;
        QCheck_alcotest.to_alcotest ising_roundtrip;
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
        Alcotest.test_case "post-process depth" `Quick machine_post_process_depth;
        Alcotest.test_case "rejects unembedded" `Quick machine_rejects_unembedded;
        Alcotest.test_case "golden outcome" `Quick machine_golden_outcome;
        Alcotest.test_case "golden outcome on a shallow schedule" `Quick
          machine_golden_outcome_on_shallow_schedule;
        Alcotest.test_case "noise keeps the schedule" `Quick machine_noise_keeps_schedule;
      ] );
  ]
