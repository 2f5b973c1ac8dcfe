(* Graph colouring with HyQSAT: generate a 3-colourable "flat" graph (the
   paper's GC benchmark family), solve the colouring CNF with the hybrid
   solver, and decode the colours back.

   Run with: dune exec examples/graph_coloring_demo.exe *)

let () =
  let rng = Stats.Rng.create ~seed:2023 in
  let nodes = 30 and edges = 72 in
  let f = Workload.Graph_coloring.generate rng ~nodes ~edges in
  Format.printf "3-colouring a flat graph: %d nodes, %d edges -> CNF with %d vars, %d clauses@."
    nodes edges (Sat.Cnf.num_vars f) (Sat.Cnf.num_clauses f);

  let classic = Hyqsat.Solve.run (Hyqsat.Solve.classic ()) f in
  let hybrid = Hyqsat.Solve.run (Hyqsat.Solve.hybrid ()) f in
  Format.printf "classic CDCL: %d iterations;  HyQSAT: %d iterations (%d QA calls)@."
    classic.Hyqsat.Hybrid_solver.iterations hybrid.Hyqsat.Hybrid_solver.iterations
    hybrid.Hyqsat.Hybrid_solver.qa_calls;

  match hybrid.Hyqsat.Hybrid_solver.result with
  | Cdcl.Solver.Sat model ->
      (* variable 3·node + colour is true iff the node has that colour *)
      let colour node =
        let rec find c = if c = 3 then '?' else if model.((node * 3) + c) then "RGB".[c] else find (c + 1) in
        find 0
      in
      Format.printf "colouring:";
      for node = 0 to nodes - 1 do
        Format.printf " %d:%c" node (colour node)
      done;
      Format.printf "@.";
      (* sanity: decode is a proper colouring because the CNF was satisfied *)
      Format.printf "model checks out: %b@."
        (Sat.Assignment.satisfies model f)
  | Cdcl.Solver.Unsat -> Format.printf "unexpected UNSAT (flat graphs are 3-colourable)@."
  | Cdcl.Solver.Unknown _ -> Format.printf "unknown@."
