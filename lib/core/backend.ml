type strategy = S1_solved | S2_keep_assignment | S3_none | S4_reach_conflict

type enabled = { s1 : bool; s2 : bool; s4 : bool }

let all_enabled = { s1 = true; s2 = true; s4 = true }

let classify calib ~all_embedded ~energy =
  match Stats.Naive_bayes.classify calib.Calibration.partition energy with
  | Stats.Naive_bayes.Satisfiable -> if all_embedded then S1_solved else S2_keep_assignment
  | Stats.Naive_bayes.Near_satisfiable -> S2_keep_assignment
  | Stats.Naive_bayes.Uncertain -> S3_none
  | Stats.Naive_bayes.Near_unsatisfiable -> S4_reach_conflict

type applied = {
  strategy : strategy;
  solved : bool array option;
  time_s : float;
}

let apply ?(enabled = all_enabled) ?(hint_filter = fun _ _ -> true) calib solver f prepared
    outcome =
  let t0 = Unix.gettimeofday () in
  let strategy =
    classify calib ~all_embedded:prepared.Frontend.all_clauses_embedded
      ~energy:outcome.Anneal.Machine.energy
  in
  let num_vars = Sat.Cnf.num_vars f in
  let assignment_of_node =
    List.filter (fun (node, _) -> node < num_vars) outcome.Anneal.Machine.assignment
  in
  let strategy =
    (* ablations: a disabled strategy degrades to "no guidance" *)
    match strategy with
    | S1_solved when not enabled.s1 -> S3_none
    | S2_keep_assignment when not enabled.s2 -> S3_none
    | S4_reach_conflict when not enabled.s4 -> S3_none
    | s -> s
  in
  let solved =
    match strategy with
    | S1_solved ->
        (* trust but verify: extend with the annealer values and check *)
        let model = Array.make num_vars false in
        List.iter (fun (v, b) -> model.(v) <- b) assignment_of_node;
        if Sat.Assignment.satisfies model f then Some model else None
    | S2_keep_assignment | S3_none | S4_reach_conflict -> None
  in
  (match (strategy, solved) with
  | S1_solved, Some _ -> ()
  | (S1_solved | S2_keep_assignment), _ ->
      (* keep the annealer's assignment as saved phases: the next decision on
         each variable reproduces the annealer's value without disturbing the
         activity order (disturbing it thrashes easy instances) *)
      List.iter
        (fun (v, b) -> if hint_filter v b then Cdcl.Solver.set_polarity solver v b)
        assignment_of_node
  | S4_reach_conflict, _ ->
      (* drive straight into the conflicting subproblem *)
      Cdcl.Solver.prioritize_vars solver prepared.Frontend.vars_involved;
      List.iter
        (fun v -> Cdcl.Solver.bump_var solver v 1.0)
        prepared.Frontend.vars_involved
  | S3_none, _ -> ());
  { strategy; solved; time_s = Unix.gettimeofday () -. t0 }
