type t = {
  model : Stats.Naive_bayes.t;
  partition : Stats.Naive_bayes.partition;
  sat_energies : float array;
  unsat_energies : float array;
}

(* Fitted by [bench fig8] under [Noise.default_2000q] on this device: a
   noisy device annealing 96 sweeps (β 0.1 → 8), then the host-side repair
   at [max 128 (8 · spins)] sweeps (fig8 read 0.51 / 2.20 at 87.5 %
   accuracy there).  The hybrid solver reads these cuts on a different one:
   the noise-free device on its one 32-sweep schedule (β 0.1 → 16),
   repaired at [max 8 (spins / 2)] sweeps, where [bench fig8] fits
   0.90 / 3.56 at 87.5 % (1.03 / 3.23 at 90.0 % on the 256-sweep device
   before it; EXPERIMENTS.md, Figure 8).  Not refitted here: a refit moves
   noise-free answers, so it is its own change (ROADMAP item 2). *)
let simulator_default =
  let model =
    {
      Stats.Naive_bayes.sat = { Stats.Gaussian.mu = 1.13; sigma = 1.13 };
      unsat = { Stats.Gaussian.mu = 4.02; sigma = 2.26 };
      prior_sat = 0.5;
    }
  in
  {
    model;
    (* asymmetric cuts: strategy 2 hints are already filtered by their vote
       margin ([Solve.warm_up]), while a false strategy-4 steer on a
       satisfiable instance actively hurts — so the unsatisfiable cut is
       taken at very high confidence (an SA sample of a satisfiable queue
       rarely exceeds 6.5 even under noise) *)
    partition = { Stats.Naive_bayes.sat_cut = 1.2; unsat_cut = 6.5 };
    sat_energies = [||];
    unsat_energies = [||];
  }

(* a random 3-SAT problem; [dense] raises the clause/variable ratio far past
   the phase transition so the embedded subset is unsatisfiable with several
   violated clauses at its optimum (the paper's unsatisfiable class) *)
let random_problem rng ~dense =
  let n = if dense then 8 + Stats.Rng.int rng 6 else 15 + Stats.Rng.int rng 26 in
  let ratio = if dense then 7.0 +. Stats.Rng.float rng 3.0 else 3. +. Stats.Rng.float rng 1.2 in
  let m = int_of_float (ratio *. float_of_int n) in
  let clause () =
    let vars = Stats.Rng.sample_without_replacement rng 3 n in
    Sat.Clause.make (List.map (fun v -> Sat.Lit.make v (Stats.Rng.bool rng)) vars)
  in
  Sat.Cnf.make ~num_vars:n (List.init m (fun _ -> clause ()))

(* anneal the embedded prefix of a problem once, through the same
   [Frontend.prepare] job the hybrid solver builds (flat activity); the
   label is the prefix subformula's true satisfiability — exactly the
   population the backend classifies at run time *)
let labeled_energy ~adjust rng graph noise f =
  match Frontend.prepare ~adjust rng graph f ~activity:(fun _ -> 1.0) with
  | None -> None
  | Some prepared -> (
      match
        Anneal.Machine.run_via ~noise ~sample:(Anneal.Backend.sample Anneal.Backend.best_of)
          rng prepared.Frontend.job
      with
      | Error _ -> None
      | Ok outcome -> (
          let prefix = List.map (Sat.Cnf.clause f) prepared.Frontend.clause_indices in
          let sub = Sat.Cnf.make ~num_vars:(Sat.Cnf.num_vars f) prefix in
          match Cdcl.Solver.solve (Cdcl.Solver.create sub) with
          | Cdcl.Solver.Sat _ -> Some (outcome.Anneal.Machine.energy, true)
          | Cdcl.Solver.Unsat -> Some (outcome.Anneal.Machine.energy, false)
          | Cdcl.Solver.Unknown _ -> None))

let calibrate ?(problems = 60) ?(noise = Anneal.Noise.default_2000q) ?(adjust = true) rng
    graph =
  let sat = ref [] and unsat = ref [] in
  let guard = ref 0 in
  (* each class is drawn from its own population (the paper tests 1000
     satisfiable and 1000 unsatisfiable problems separately); samples whose
     prefix label does not match the intended class are discarded so a
     barely-satisfiable dense instance cannot pollute the satisfiable class *)
  while (List.length !sat < problems || List.length !unsat < problems)
        && !guard < problems * 40 do
    incr guard;
    let want_unsat = List.length !unsat < problems in
    let f = random_problem rng ~dense:want_unsat in
    match (labeled_energy ~adjust rng graph noise f, want_unsat) with
    | Some (e, false), true -> unsat := e :: !unsat
    | Some (e, true), false -> if List.length !sat < problems then sat := e :: !sat
    | _ -> ()
  done;
  let sat_energies = Array.of_list !sat in
  let unsat_energies = Array.of_list !unsat in
  let model = Stats.Naive_bayes.fit ~sat:sat_energies ~unsat:unsat_energies in
  {
    model;
    partition = Stats.Naive_bayes.partition ~confidence:0.9 model;
    sat_energies;
    unsat_energies;
  }
