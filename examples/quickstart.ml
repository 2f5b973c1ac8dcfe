(* Quickstart: build a 3-SAT formula, solve it with the hybrid QA+CDCL
   solver, and inspect how the quantum annealer guided the search.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* the paper's running example (Fig. 2):
     C = (x1 ∨ x2 ∨ x3) ∧ (x2 ∨ ¬x3 ∨ x4) *)
  let f =
    Sat.Cnf.make ~num_vars:4
      [ Sat.Clause.of_dimacs [ 1; 2; 3 ]; Sat.Clause.of_dimacs [ 2; -3; 4 ] ]
  in
  Format.printf "Problem:@.%a@." Sat.Cnf.pp f;

  (* solve with the hybrid solver (noise-free annealer, 16×16 Chimera) *)
  let report = Hyqsat.Solve.run (Hyqsat.Solve.hybrid ()) f in
  (match report.Hyqsat.Hybrid_solver.result with
  | Cdcl.Solver.Sat model ->
      Format.printf "SATISFIABLE:";
      Array.iteri (fun v b -> Format.printf " x%d=%d" (v + 1) (if b then 1 else 0)) model;
      Format.printf "@."
  | Cdcl.Solver.Unsat -> Format.printf "UNSATISFIABLE@."
  | Cdcl.Solver.Unknown _ -> Format.printf "UNKNOWN@.");

  Format.printf "CDCL iterations: %d   QA calls: %d   modelled QA time: %.0f us@."
    report.Hyqsat.Hybrid_solver.iterations report.Hyqsat.Hybrid_solver.qa_calls
    report.Hyqsat.Hybrid_solver.qa_time_us;
  Format.printf "feedback strategies used: s1=%d s2=%d s3=%d s4=%d@."
    report.Hyqsat.Hybrid_solver.strategy_uses.(0)
    report.Hyqsat.Hybrid_solver.strategy_uses.(1)
    report.Hyqsat.Hybrid_solver.strategy_uses.(2)
    report.Hyqsat.Hybrid_solver.strategy_uses.(3);

  (* the lower-level pieces are also directly accessible: encode the formula
     as a QUBO objective (paper Eq. 3-5) ... *)
  let enc = Qubo.Encode.encode ~num_vars:4 (Sat.Cnf.clauses f) in
  Format.printf "QUBO objective: %a@." Qubo.Pbq.pp (Qubo.Encode.objective enc);

  (* ... embed it on the Chimera hardware graph (paper §IV-B) ... *)
  let graph = Chimera.Graph.standard_2000q () in
  let embedded = Embed.Hyqsat_scheme.embed graph enc.Qubo.Encode.clauses
      ~aux_of_clause:enc.Qubo.Encode.aux_of_clause
  in
  Format.printf "embedded %d/2 clauses using %d physical qubits@."
    embedded.Embed.Hyqsat_scheme.embedded_clauses
    (Embed.Embedding.qubits_used embedded.Embed.Hyqsat_scheme.embedding);

  (* ... and run one annealing cycle on the simulated hardware (a real
     device call could fail; the simulator never does) *)
  let rng = Stats.Rng.create ~seed:7 in
  let job =
    {
      Anneal.Machine.embedding = embedded.Embed.Hyqsat_scheme.embedding;
      objective = Qubo.Encode.objective enc;
    }
  in
  (match
     Anneal.Machine.run_via ~sample:(Anneal.Backend.sample Anneal.Backend.best_of) rng job
   with
  | Ok outcome ->
      Format.printf "one annealing cycle: energy %.1f in %.0f us@."
        outcome.Anneal.Machine.energy outcome.Anneal.Machine.time_us
  | Error f -> Format.printf "annealer failed: %s@." (Anneal.Backend.failure_label f))
