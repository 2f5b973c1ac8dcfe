(* Tests for the HyQSAT core: clause queue, calibration, frontend, backend,
   hybrid solver. *)

module Queue_ = Hyqsat.Clause_queue
module Calibration = Hyqsat.Calibration
module Frontend = Hyqsat.Frontend
module Backend = Hyqsat.Backend
module Hybrid = Hyqsat.Hybrid_solver

let hsolve ?(config = Hybrid.default_config) f = Hyqsat.Solve.run (Hyqsat.Solve.Hybrid config) f
let csolve f = Hyqsat.Solve.run (Hyqsat.Solve.Classic Cdcl.Config.minisat_like) f

let flat_activity _ = 1.0

(* ---- clause queue ---- *)

let queue_bfs_locality () =
  let r = Testutil.rng 201 in
  let f = Workload.Uniform.uf r 60 in
  let q = Queue_.generate r f ~activity:flat_activity ~limit:30 in
  Alcotest.(check int) "limit respected" 30 (List.length q);
  Alcotest.(check int) "no duplicates" 30 (List.length (List.sort_uniq Int.compare q));
  (* every clause after the head shares a variable with an earlier clause *)
  let rec check_connected seen = function
    | [] -> ()
    | k :: rest ->
        let c = Sat.Cnf.clause f k in
        if seen <> [] then
          Alcotest.(check bool) "BFS connectivity" true
            (List.exists
               (fun k' ->
                 List.exists (fun v -> List.mem v (Sat.Clause.vars c))
                   (Sat.Clause.vars (Sat.Cnf.clause f k')))
               seen);
        check_connected (k :: seen) rest
  in
  check_connected [] q

let queue_head_from_top_activity () =
  let r = Testutil.rng 202 in
  let f = Workload.Uniform.uf r 40 in
  (* one clause vastly more active than the rest: with top_k = 1 it must be
     the head every time *)
  let hot = 17 in
  let activity k = if k = hot then 100.0 else 1.0 in
  for _ = 1 to 5 do
    match Queue_.generate ~top_k:1 r f ~activity ~limit:10 with
    | head :: _ -> Alcotest.(check int) "hot clause first" hot head
    | [] -> Alcotest.fail "empty queue"
  done

let queue_var_budget () =
  let r = Testutil.rng 203 in
  let f = Workload.Uniform.uf r 100 in
  let q = Queue_.generate ~var_budget:20 r f ~activity:flat_activity ~limit:1000 in
  let vars =
    List.sort_uniq Int.compare
      (List.concat_map (fun k -> Sat.Clause.vars (Sat.Cnf.clause f k)) q)
  in
  Alcotest.(check bool) "var budget respected" true (List.length vars <= 20);
  Alcotest.(check bool) "queue nonempty" true (q <> [])

let queue_budget_improves_density () =
  let r = Testutil.rng 204 in
  let f = Workload.Uniform.uf r 150 in
  let q = Queue_.generate ~var_budget:64 r f ~activity:flat_activity ~limit:500 in
  let vars =
    List.sort_uniq Int.compare
      (List.concat_map (fun k -> Sat.Clause.vars (Sat.Cnf.clause f k)) q)
  in
  (* the budgeted queue packs more clauses than variables *)
  Alcotest.(check bool) "clauses > vars" true (List.length q > List.length vars)

let queue_random_mode () =
  let r = Testutil.rng 205 in
  let f = Workload.Uniform.uf r 50 in
  let q = Queue_.generate_random r f ~limit:25 in
  Alcotest.(check int) "size" 25 (List.length q);
  Alcotest.(check int) "distinct" 25 (List.length (List.sort_uniq Int.compare q))

let queue_empty_formula () =
  let f = Sat.Cnf.make ~num_vars:3 [] in
  let r = Testutil.rng 206 in
  Alcotest.(check (list int)) "empty" []
    (Queue_.generate r f ~activity:flat_activity ~limit:10)

(* ---- calibration ---- *)

(* the distribution the paper reports for D-Wave 2000Q (Fig. 8): cuts at
   4.5 and 8 *)
let paper_calibration =
  {
    Calibration.model =
      {
        Stats.Naive_bayes.sat = { Stats.Gaussian.mu = 1.8; sigma = 1.9 };
        unsat = { Stats.Gaussian.mu = 9.5; sigma = 2.6 };
        prior_sat = 0.5;
      };
    partition = { Stats.Naive_bayes.sat_cut = 4.5; unsat_cut = 8.0 };
    sat_energies = [||];
    unsat_energies = [||];
  }

let calibration_separates_classes () =
  let rng = Testutil.rng 207 in
  let g = Chimera.Graph.standard_2000q () in
  let c = Calibration.calibrate ~problems:8 ~noise:Anneal.Noise.noise_free rng g in
  Alcotest.(check bool) "collected sat" true (Array.length c.Calibration.sat_energies >= 4);
  Alcotest.(check bool) "collected unsat" true (Array.length c.Calibration.unsat_energies >= 4);
  let mean_sat = Stats.Descriptive.mean c.Calibration.sat_energies in
  let mean_unsat = Stats.Descriptive.mean c.Calibration.unsat_energies in
  Alcotest.(check bool) "unsat energies higher" true (mean_unsat > mean_sat)

(* ---- frontend ---- *)

let frontend_prepares () =
  let rng = Testutil.rng 208 in
  let g = Chimera.Graph.standard_2000q () in
  let f = Workload.Uniform.uf rng 80 in
  match Frontend.prepare rng g f ~activity:flat_activity with
  | None -> Alcotest.fail "frontend produced nothing"
  | Some p ->
      Alcotest.(check bool) "clauses embedded" true (p.Frontend.clause_indices <> []);
      Alcotest.(check bool) "not all embedded (344 clauses)" false p.Frontend.all_clauses_embedded;
      (* job validates against its own edges *)
      (match
         Embed.Embedding.validate p.Frontend.job.Anneal.Machine.embedding
           ~edges:(Qubo.Pbq.edges p.Frontend.job.Anneal.Machine.objective)
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (* vars_involved are exactly the variables of the embedded clauses *)
      let expect =
        List.sort_uniq Int.compare
          (List.concat_map (fun k -> Sat.Clause.vars (Sat.Cnf.clause f k)) p.Frontend.clause_indices)
      in
      Alcotest.(check (list int)) "vars involved" expect p.Frontend.vars_involved

let frontend_small_formula_fully_embeds () =
  let rng = Testutil.rng 209 in
  let g = Chimera.Graph.standard_2000q () in
  let f = Workload.Uniform.generate rng ~num_vars:15 ~num_clauses:25 in
  match Frontend.prepare rng g f ~activity:flat_activity with
  | None -> Alcotest.fail "nothing prepared"
  | Some p -> Alcotest.(check bool) "fully embedded" true p.Frontend.all_clauses_embedded

let frontend_cache_hits_share_embedding () =
  let g = Chimera.Graph.standard_2000q () in
  let f = Workload.Uniform.uf (Testutil.rng 210) 80 in
  let cache = Hyqsat.Frontend.create_cache g in
  let ctx = Obs.Ctx.create () in
  let prep seed = Frontend.prepare ~obs:ctx ~cache (Testutil.rng seed) g f ~activity:flat_activity in
  (* the same rng seed regenerates the same clause queue: second call hits *)
  (match (prep 211, prep 211) with
  | Some a, Some b ->
      Alcotest.(check (list int)) "same queue" a.Frontend.clause_indices b.Frontend.clause_indices;
      (* the Chimera placement is shared, not recomputed or copied *)
      Alcotest.(check bool) "embedding physically shared" true
        (a.Frontend.job.Anneal.Machine.embedding == b.Frontend.job.Anneal.Machine.embedding)
  | _ -> Alcotest.fail "prepare produced nothing");
  Alcotest.(check (pair int int)) "one miss then one hit" (1, 1)
    (Hyqsat.Frontend.cache_stats cache);
  let metric name =
    match List.assoc_opt name (Obs.Ctx.snapshot ctx) with
    | Some (Obs.Ctx.Counter { count }) -> int_of_float count
    | _ -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check int) "hit counter" 1 (metric "embed_cache_hits_total");
  Alcotest.(check int) "miss counter" 1 (metric "embed_cache_misses_total");
  Obs.Ctx.close ctx;
  (* a different seed draws a different conflict-hot queue: a miss *)
  ignore (prep 212);
  Alcotest.(check (pair int int)) "new structure misses" (1, 2)
    (Hyqsat.Frontend.cache_stats cache)

(* (x0 ∨ ¬x0 ∨ x1) touches the variables of (x0 ∨ x1) but would take an
   auxiliary qubit: the two queues must not share a placement, or the
   second job's auxiliary lands on no chain.  Tautologies stay out of the
   queue, so the second job places (x1 ∨ x2 ∨ x3) alone *)
let frontend_cache_key_keeps_clause_size () =
  let g = Chimera.Graph.standard_2000q () in
  let cache = Frontend.create_cache g in
  let formula first = Sat.Cnf.make ~num_vars:5 [ first; Sat.Clause.of_dimacs [ 2; 3; 4 ] ] in
  let prep f = Frontend.prepare ~cache (Testutil.rng 1) g f ~activity:flat_activity in
  ignore (prep (formula (Sat.Clause.of_dimacs [ 1; 2 ])));
  match prep (formula (Sat.Clause.of_dimacs [ 1; -1; 2 ])) with
  | None -> Alcotest.fail "nothing prepared"
  | Some p ->
      let sample = Anneal.Backend.sample Anneal.Backend.best_of in
      Alcotest.(check bool) "job anneals" true
        (Result.is_ok (Anneal.Machine.run_via ~sample (Testutil.rng 2) p.Frontend.job));
      Alcotest.(check (pair int int)) "two placements" (0, 2) (Frontend.cache_stats cache)

(* a planted formula with a tautology after every third clause *)
let with_tautologies rng ~num_vars ~num_clauses =
  let base = Workload.Uniform.generate ~planted:true rng ~num_vars ~num_clauses in
  let taut i =
    let v = 1 + (i mod num_vars) in
    Sat.Clause.of_dimacs [ v; -v; 1 + (((7 * i) + 3) mod num_vars) ]
  in
  Sat.Cnf.make ~num_vars
    (List.concat
       (List.mapi (fun i c -> if i mod 3 = 0 then [ c; taut i ] else [ c ]) (Sat.Cnf.clauses base)))

(* tautologies never reach the annealer: neither queue mode places one,
   a job covering every other clause counts as fully embedded, and the
   hybrid answer is still certified *)
let frontend_skips_tautologies () =
  let g = Chimera.Graph.standard_2000q () in
  let f = with_tautologies (Testutil.rng 214) ~num_vars:30 ~num_clauses:120 in
  let activity c = float_of_int (c mod 7) in
  List.iter
    (fun queue_mode ->
      for seed = 1 to 20 do
        match Frontend.prepare ~queue_mode (Testutil.rng seed) g f ~activity with
        | None -> Alcotest.fail "nothing prepared"
        | Some p ->
            Alcotest.(check bool) "clauses embedded" true (p.Frontend.clause_indices <> []);
            List.iter
              (fun k ->
                Alcotest.(check bool) "no tautology placed" false
                  (Sat.Clause.is_tautology (Sat.Cnf.clause f k)))
              p.Frontend.clause_indices
      done)
    [ Frontend.Activity_bfs; Frontend.Random ];
  let small = with_tautologies (Testutil.rng 209) ~num_vars:15 ~num_clauses:25 in
  (match Frontend.prepare (Testutil.rng 209) g small ~activity:flat_activity with
  | None -> Alcotest.fail "nothing prepared"
  | Some p -> Alcotest.(check bool) "fully embedded" true p.Frontend.all_clauses_embedded);
  let r =
    Service.Batch.process ~members:(Service.Batch.resolve "hybrid") ~obs:Obs.Ctx.null
      ~parent:Obs.Span.none
      (Service.Job.make ~certify:true ~seed:5 ~id:0 f)
      ~enqueued_at:(Unix.gettimeofday ()) ()
  in
  Alcotest.(check string) "sat" "sat" r.Service.Batch.record.Service.Telemetry.outcome;
  Alcotest.(check string) "certified" "model" r.Service.Batch.record.Service.Telemetry.verified

let frontend_cache_bound_to_graph () =
  let g1 = Chimera.Graph.create ~rows:4 ~cols:4 in
  let g2 = Chimera.Graph.create ~rows:4 ~cols:4 in
  let cache = Hyqsat.Frontend.create_cache g1 in
  let f = Workload.Uniform.generate (Testutil.rng 213) ~num_vars:10 ~num_clauses:15 in
  Alcotest.(check bool) "other graph rejected" true
    (try
       ignore (Frontend.prepare ~cache (Testutil.rng 1) g2 f ~activity:flat_activity);
       false
     with Invalid_argument _ -> true)

(* ---- backend ---- *)

let backend_classification () =
  let c = paper_calibration in
  Alcotest.(check bool) "zero energy + all -> S1" true
    (Backend.classify c ~all_embedded:true ~energy:0.0 = Backend.S1_solved);
  Alcotest.(check bool) "zero energy partial -> S2" true
    (Backend.classify c ~all_embedded:false ~energy:0.0 = Backend.S2_keep_assignment);
  Alcotest.(check bool) "energy 2 -> S2" true
    (Backend.classify c ~all_embedded:true ~energy:2.0 = Backend.S2_keep_assignment);
  Alcotest.(check bool) "energy 6 -> S3" true
    (Backend.classify c ~all_embedded:true ~energy:6.0 = Backend.S3_none);
  Alcotest.(check bool) "energy 12 -> S4" true
    (Backend.classify c ~all_embedded:true ~energy:12.0 = Backend.S4_reach_conflict)

let backend_strategy1_verifies () =
  (* an S1 sample that does NOT satisfy the formula must not be trusted *)
  let rng = Testutil.rng 210 in
  let g = Chimera.Graph.standard_2000q () in
  let f = Workload.Uniform.generate rng ~num_vars:12 ~num_clauses:20 in
  match Frontend.prepare rng g f ~activity:flat_activity with
  | None -> Alcotest.fail "nothing prepared"
  | Some p ->
      let solver = Cdcl.Solver.create f in
      (* fabricate a lying outcome: energy 0 with an all-false assignment *)
      let fake =
        {
          Anneal.Machine.assignment = List.map (fun v -> (v, false)) p.Frontend.vars_involved;
          energy = 0.0;
          physical_energy = 0.0;
          chain_breaks = 0;
          time_us = 130.;
        }
      in
      let applied = Backend.apply paper_calibration solver f p fake in
      (match applied.Backend.solved with
      | Some model ->
          Alcotest.(check bool) "only a real model is reported" true
            (Testutil.check_model f model)
      | None -> ())

let backend_ablation_masks () =
  let c = paper_calibration in
  let rng = Testutil.rng 211 in
  let g = Chimera.Graph.standard_2000q () in
  let f = Workload.Uniform.generate rng ~num_vars:12 ~num_clauses:20 in
  match Frontend.prepare rng g f ~activity:flat_activity with
  | None -> Alcotest.fail "nothing prepared"
  | Some p ->
      let solver = Cdcl.Solver.create f in
      let outcome =
        {
          Anneal.Machine.assignment = List.map (fun v -> (v, false)) p.Frontend.vars_involved;
          energy = 12.0;
          physical_energy = 0.0;
          chain_breaks = 0;
          time_us = 130.;
        }
      in
      let off = { Backend.s1 = true; s2 = true; s4 = false } in
      let applied = Backend.apply ~enabled:off c solver f p outcome in
      Alcotest.(check bool) "s4 disabled -> S3" true
        (applied.Backend.strategy = Backend.S3_none)

(* ---- hybrid solver ---- *)

let hybrid_agrees_with_classic () =
  let rng = Testutil.rng 212 in
  for _ = 1 to 6 do
    let f = Workload.Uniform.generate rng ~num_vars:25 ~num_clauses:100 in
    let classic = csolve f in
    let hybrid = hsolve f in
    let is_sat = function Cdcl.Solver.Sat _ -> true | _ -> false in
    Alcotest.(check bool) "same satisfiability" (is_sat classic.Hybrid.result)
      (is_sat hybrid.Hybrid.result);
    match hybrid.Hybrid.result with
    | Cdcl.Solver.Sat m -> Alcotest.(check bool) "model valid" true (Testutil.check_model f m)
    | _ -> ()
  done

let hybrid_agrees_under_noise () =
  (* soundness under heavy noise: hints may be garbage, answers must not *)
  let rng = Testutil.rng 213 in
  let config = Hybrid.make_config ~noise:(Anneal.Noise.bit_flip_only 0.4) () in
  for _ = 1 to 4 do
    let f = Workload.Uniform.generate rng ~num_vars:20 ~num_clauses:85 in
    let classic = csolve f in
    let hybrid = hsolve ~config f in
    let is_sat = function Cdcl.Solver.Sat _ -> true | _ -> false in
    Alcotest.(check bool) "noise never changes the answer" (is_sat classic.Hybrid.result)
      (is_sat hybrid.Hybrid.result)
  done

let hybrid_unsat_detection () =
  let rng = Testutil.rng 214 in
  let f = Workload.Circuit_fault.generate rng ~inputs:6 ~gates:20 in
  let hybrid = hsolve f in
  Alcotest.(check bool) "unsat" true (hybrid.Hybrid.result = Cdcl.Solver.Unsat)

let hybrid_report_consistency () =
  let rng = Testutil.rng 215 in
  let f = Workload.Uniform.uf rng 40 in
  let r = hsolve f in
  Alcotest.(check bool) "qa calls bounded by warmup" true
    (r.Hybrid.qa_calls <= r.Hybrid.warmup_iterations + 1);
  Alcotest.(check int) "strategy uses sum to qa calls" r.Hybrid.qa_calls
    (Array.fold_left ( + ) 0 r.Hybrid.strategy_uses);
  Alcotest.(check bool) "qa time positive iff calls" true
    ((r.Hybrid.qa_calls > 0) = (r.Hybrid.qa_time_us > 0.));
  Alcotest.(check bool) "end-to-end >= cdcl time" true
    (Hybrid.end_to_end_time_s r >= r.Hybrid.cdcl_time_s)

(* unplanted 3-SAT at the given clause/variable ratio: SAT or UNSAT *)
let uniform ~seed ~n ~ratio =
  let m = int_of_float (Float.ceil (ratio *. float_of_int n)) in
  Workload.Uniform.generate ~planted:false (Testutil.rng seed) ~num_vars:n ~num_clauses:m

(* The hybrid solve is a warm-up followed by the classic search, so with
   no warm-up it must be the classic search, step for step. *)
let classic_is_hybrid_without_warmup =
  QCheck.Test.make ~name:"classic is hybrid without a warm-up" ~count:60
    QCheck.(pair small_nat (int_range 8 40))
    (fun (seed, n) ->
      let f = uniform ~seed ~n ~ratio:4.3 in
      let c =
        Cdcl.Config.with_proof_logging (Cdcl.Config.with_seed seed Cdcl.Config.minisat_like)
      in
      let h = hsolve ~config:(Hybrid.make_config ~warmup_fraction:0. ~cdcl:c ()) f in
      let k = Hyqsat.Solve.run (Hyqsat.Solve.Classic (Cdcl.Config.with_paper_stats c)) f in
      h.Hybrid.warmup_iterations = 0
      && h.Hybrid.result = k.Hybrid.result
      && h.Hybrid.iterations = k.Hybrid.iterations
      && h.Hybrid.solver_stats = k.Hybrid.solver_stats
      && h.Hybrid.proof = k.Hybrid.proof)

let hybrid_cancelled_after_warmup () =
  (* UNSAT at ratio 5: neither the annealer nor the warm-up can decide it *)
  let f = uniform ~seed:3 ~n:80 ~ratio:5.0 in
  let config = Hybrid.default_config in
  let warmup =
    int_of_float (config.Hybrid.warmup_fraction *. sqrt (float_of_int (Hybrid.estimate_iterations f)))
  in
  (* the warm-up polls once before each of its [warmup] iterations; the
     next poll is the classic search's first *)
  let polls = ref 0 in
  let should_stop () =
    incr polls;
    !polls > warmup
  in
  let r = Hyqsat.Solve.run ~should_stop (Hyqsat.Solve.Hybrid config) f in
  Alcotest.(check bool) "cancelled" true (r.Hybrid.result = Cdcl.Solver.Unknown Sat.Answer.Cancelled);
  Alcotest.(check int) "whole warm-up ran" warmup r.Hybrid.warmup_iterations;
  Alcotest.(check bool) "stopped within one poll of the warm-up" true
    (r.Hybrid.iterations <= warmup + 128)

(* x1 and ¬x1 refute the formula as the solver is built, so the warm-up
   must neither step nor consult the annealer *)
let hybrid_refuted_at_creation_skips_warmup () =
  let uf = Workload.Uniform.uf (Testutil.rng 11) 20 in
  let x1 = Sat.Lit.make 0 true in
  let f =
    Sat.Cnf.make ~num_vars:(Sat.Cnf.num_vars uf)
      (Sat.Cnf.clauses uf @ [ Sat.Clause.make [ x1 ]; Sat.Clause.make [ Sat.Lit.negate x1 ] ])
  in
  let r = hsolve f in
  Alcotest.(check bool) "unsat" true (r.Hybrid.result = Cdcl.Solver.Unsat);
  Alcotest.(check int) "no qa calls" 0 r.Hybrid.qa_calls;
  Alcotest.(check int) "no warm-up" 0 r.Hybrid.warmup_iterations

let hybrid_proofs_past_warmup_check () =
  let config =
    Hybrid.make_config ~cdcl:(Cdcl.Config.with_proof_logging Cdcl.Config.minisat_like) ()
  in
  let checked = ref 0 in
  for seed = 1 to 12 do
    let f = uniform ~seed ~n:(30 + (seed mod 20)) ~ratio:4.6 in
    let r = hsolve ~config f in
    if r.Hybrid.result = Cdcl.Solver.Unsat && r.Hybrid.iterations > r.Hybrid.warmup_iterations
    then begin
      incr checked;
      match Sat.Drat.check f (Option.get r.Hybrid.proof) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: %s" seed e
    end
  done;
  Alcotest.(check bool) "some UNSAT solves ran past the warm-up" true (!checked > 0)

let hybrid_strategy1_shortcut () =
  (* a formula small enough to fully embed can be finished by strategy 1 *)
  let hit = ref false in
  for seed = 1 to 6 do
    let rng = Testutil.rng (216 + seed) in
    let f = Workload.Uniform.generate rng ~num_vars:18 ~num_clauses:36 in
    let r = hsolve f in
    if r.Hybrid.strategy_uses.(0) > 0 then begin
      hit := true;
      match r.Hybrid.result with
      | Cdcl.Solver.Sat m -> Alcotest.(check bool) "model valid" true (Testutil.check_model f m)
      | _ -> Alcotest.fail "strategy 1 must imply SAT"
    end
  done;
  Alcotest.(check bool) "strategy 1 fires on small instances" true !hit

let estimate_iterations_positive =
  QCheck.Test.make ~name:"iteration estimate positive and monotone-ish" ~count:50
    (QCheck.pair (QCheck.int_range 10 200) (QCheck.int_range 1 4))
    (fun (n, ratio) ->
      let f =
        Sat.Cnf.make ~num_vars:n
          (List.init (n * ratio) (fun i ->
               Sat.Clause.make [ Sat.Lit.pos (i mod n); Sat.Lit.neg_of ((i + 1) mod n) ]))
      in
      Hybrid.estimate_iterations f >= 16)

(* ---- maxsat ---- *)

let maxsat_reaches_optimum_on_satisfiable () =
  let rng = Testutil.rng 401 in
  let g = Chimera.Graph.standard_2000q () in
  let f = Workload.Uniform.generate rng ~num_vars:15 ~num_clauses:30 in
  match Hyqsat.Optimize.anneal_incumbent rng g (Sat.Wcnf.of_cnf f) with
  | None -> Alcotest.fail "nothing embedded"
  | Some (cost, _) ->
      Alcotest.(check int) "zero violations on planted instance" 0 cost

let maxsat_matches_brute_optimum () =
  let rng = Testutil.rng 402 in
  let g = Chimera.Graph.standard_2000q () in
  for _ = 1 to 4 do
    (* deeply over-constrained: optimum > 0 *)
    let f = Workload.Uniform.generate ~planted:false rng ~num_vars:10 ~num_clauses:80 in
    let w = Sat.Wcnf.of_cnf f in
    let optimum = Oracle.Brute.min_unsatisfied f in
    (match Hyqsat.Optimize.anneal_incumbent ~samples:10 rng g w with
    | None -> Alcotest.fail "nothing embedded"
    | Some (cost, _) ->
        Alcotest.(check bool) "annealer >= optimum" true (cost >= optimum);
        Alcotest.(check bool) "annealer close to optimum" true (cost <= optimum + 3));
    let ls_cost, _ = Hyqsat.Optimize.incumbent rng w in
    Alcotest.(check bool) "local search >= optimum" true (ls_cost >= optimum)
  done

let maxsat_counts_consistent =
  QCheck.Test.make ~name:"maxsat incumbent counts its own violations" ~count:30
    Testutil.small_cnf_arb (fun f ->
      let rng = Testutil.rng 403 in
      let cost, x = Hyqsat.Optimize.incumbent ~max_flips:500 rng (Sat.Wcnf.of_cnf f) in
      Oracle.Partial.num_unsatisfied x f = cost)

let suite =
  [
    ( "hyqsat.maxsat",
      [
        Alcotest.test_case "optimum on satisfiable" `Quick maxsat_reaches_optimum_on_satisfiable;
        Alcotest.test_case "near brute optimum" `Slow maxsat_matches_brute_optimum;
        QCheck_alcotest.to_alcotest maxsat_counts_consistent;
      ] );
    ( "hyqsat.clause_queue",
      [
        Alcotest.test_case "bfs locality" `Quick queue_bfs_locality;
        Alcotest.test_case "head from top activity" `Quick queue_head_from_top_activity;
        Alcotest.test_case "var budget" `Quick queue_var_budget;
        Alcotest.test_case "budget improves density" `Quick queue_budget_improves_density;
        Alcotest.test_case "random mode" `Quick queue_random_mode;
        Alcotest.test_case "empty formula" `Quick queue_empty_formula;
      ] );
    ( "hyqsat.calibration",
      [
        Alcotest.test_case "separates classes" `Slow calibration_separates_classes;
      ] );
    ( "hyqsat.frontend",
      [
        Alcotest.test_case "prepares valid jobs" `Quick frontend_prepares;
        Alcotest.test_case "small formula fully embeds" `Quick frontend_small_formula_fully_embeds;
        Alcotest.test_case "cache hits share embedding" `Quick frontend_cache_hits_share_embedding;
        Alcotest.test_case "cache bound to its graph" `Quick frontend_cache_bound_to_graph;
        Alcotest.test_case "cache key keeps clause size" `Quick
          frontend_cache_key_keeps_clause_size;
        Alcotest.test_case "tautologies never queued" `Quick frontend_skips_tautologies;
      ] );
    ( "hyqsat.backend",
      [
        Alcotest.test_case "classification" `Quick backend_classification;
        Alcotest.test_case "strategy 1 verifies" `Quick backend_strategy1_verifies;
        Alcotest.test_case "ablation masks" `Quick backend_ablation_masks;
      ] );
    ( "hyqsat.hybrid",
      [
        Alcotest.test_case "agrees with classic" `Slow hybrid_agrees_with_classic;
        Alcotest.test_case "sound under noise" `Slow hybrid_agrees_under_noise;
        Alcotest.test_case "unsat detection" `Quick hybrid_unsat_detection;
        Alcotest.test_case "report consistency" `Quick hybrid_report_consistency;
        Alcotest.test_case "strategy 1 shortcut" `Slow hybrid_strategy1_shortcut;
        QCheck_alcotest.to_alcotest estimate_iterations_positive;
        QCheck_alcotest.to_alcotest classic_is_hybrid_without_warmup;
        Alcotest.test_case "cancelled right after the warm-up" `Quick
          hybrid_cancelled_after_warmup;
        Alcotest.test_case "refuted at creation skips the warm-up" `Quick
          hybrid_refuted_at_creation_skips_warmup;
        Alcotest.test_case "proofs past the warm-up check" `Slow
          hybrid_proofs_past_warmup_check;
      ] );
  ]
