type verdict =
  | Model_verified
  | Proof_verified of int
  | Nothing_to_certify

let verdict_label = function
  | Ok Model_verified -> "model"
  | Ok (Proof_verified _) -> "proof"
  | Ok Nothing_to_certify -> ""
  | Error reason -> "failed: " ^ reason

let check_model ~original m =
  let n = Sat.Cnf.num_vars original in
  if Array.length m < n then
    Error
      (Printf.sprintf "model assigns %d of %d original variables" (Array.length m) n)
  else begin
    let m = if Array.length m > n then Array.sub m 0 n else m in
    let bad = ref None in
    Sat.Cnf.iter_clauses
      (fun i c ->
        if !bad = None && not (Sat.Assignment.satisfies_clause m c) then bad := Some (i, c))
      original;
    match !bad with
    | None -> Ok ()
    | Some (i, c) ->
        Error (Format.asprintf "model falsifies clause %d: %a" i Sat.Clause.pp c)
  end

let check_proof ?should_stop solved proof = Sat.Drat.check ?should_stop solved proof

(* ---- optimisation certificates ---- *)

type opt_verdict =
  | Cost_verified of int
  | Optimality_verified of int
  | Infeasibility_verified

let opt_verdict_label = function
  | Ok (Cost_verified _) -> "cost"
  | Ok (Optimality_verified _) -> "optimal"
  | Ok Infeasibility_verified -> "infeasible"
  | Error reason -> "failed: " ^ reason

(* Independent re-encoding of "some model costs at most [bound]": hard
   clauses, selector-relaxed softs, and a binary-adder weighted counter
   ({!Sat.Cardinality.at_most_weight}, O(softs · log sum_weights) — a unary
   expansion would allocate O(sum_weights) and real WDIMACS weights run to
   the millions).  Built from scratch here — deliberately not shared with
   [Hyqsat.Optimize] — so the certificate does not trust the solver's own
   encoding. *)
let bounded_cost_formula w ~bound =
  let n = Sat.Wcnf.num_vars w in
  let softs = Sat.Wcnf.soft_clauses w in
  let m = List.length softs in
  let relaxed =
    List.mapi
      (fun k (_, c) -> Sat.Clause.make (Sat.Lit.pos (n + k) :: Sat.Clause.lits c))
      softs
  in
  let weighted = List.mapi (fun k (wt, _) -> (wt, Sat.Lit.pos (n + k))) softs in
  let card = Sat.Cardinality.at_most_weight ~num_vars:(n + m) weighted ~k:bound in
  Sat.Cnf.make ~num_vars:card.Sat.Cardinality.num_vars
    (Array.to_list w.Sat.Wcnf.hard @ relaxed @ card.Sat.Cardinality.clauses)

let certify_opt ?max_conflicts ?should_stop ~original (r : Hyqsat.Optimize.result) =
  let w = original in
  let resolve f =
    let solver = Cdcl.Solver.create f in
    (match should_stop with
    | Some stop -> Cdcl.Solver.set_terminate solver stop
    | None -> ());
    Cdcl.Solver.solve ?max_conflicts solver
  in
  match (r.Hyqsat.Optimize.status, r.Hyqsat.Optimize.best) with
  | Hyqsat.Optimize.Infeasible, _ -> (
      match resolve (Sat.Wcnf.hard_cnf w) with
      | Cdcl.Solver.Unsat -> Ok Infeasibility_verified
      | Cdcl.Solver.Sat _ -> Error "claimed infeasible but the hard clauses are satisfiable"
      | Cdcl.Solver.Unknown _ -> Error "infeasibility re-solve inconclusive")
  | Hyqsat.Optimize.Unknown, _ -> Error "no model to certify"
  | (Hyqsat.Optimize.Optimal | Hyqsat.Optimize.Feasible), None ->
      Error "answer claims a model but carries none"
  | (Hyqsat.Optimize.Optimal | Hyqsat.Optimize.Feasible), Some m ->
      let n = Sat.Wcnf.num_vars w in
      if Array.length m < n then
        Error (Printf.sprintf "model assigns %d of %d variables" (Array.length m) n)
      else if not (Sat.Wcnf.hard_satisfied w m) then Error "model falsifies a hard clause"
      else begin
        let cost = Sat.Wcnf.cost w m in
        if cost <> r.Hyqsat.Optimize.best_cost then
          Error
            (Printf.sprintf "claimed cost %d but the model recomputes to %d"
               r.Hyqsat.Optimize.best_cost cost)
        else if r.Hyqsat.Optimize.lower_bound > cost then
          Error
            (Printf.sprintf "lower bound %d exceeds the model cost %d"
               r.Hyqsat.Optimize.lower_bound cost)
        else if r.Hyqsat.Optimize.status = Hyqsat.Optimize.Feasible then Ok (Cost_verified cost)
        else if cost = 0 then Ok (Optimality_verified 0)
        else
          (* optimality: forcing a strictly cheaper model must be UNSAT *)
          match resolve (bounded_cost_formula w ~bound:(cost - 1)) with
          | Cdcl.Solver.Unsat -> Ok (Optimality_verified cost)
          | Cdcl.Solver.Sat _ ->
              Error (Printf.sprintf "a model cheaper than the claimed optimum %d exists" cost)
          | Cdcl.Solver.Unknown _ -> Error "optimality re-solve inconclusive"
      end

let certify ?should_stop ~original ~solved ?proof result =
  match result with
  | Cdcl.Solver.Unknown _ -> Ok Nothing_to_certify
  | Cdcl.Solver.Sat m -> (
      match check_model ~original m with
      | Ok () -> Ok Model_verified
      | Error e -> Error e)
  | Cdcl.Solver.Unsat -> (
      match proof with
      | None -> Error "unsat answer carries no proof"
      | Some p -> (
          match check_proof ?should_stop solved p with
          | Ok () -> Ok (Proof_verified (List.length p))
          | Error e -> Error ("proof rejected: " ^ e)))
