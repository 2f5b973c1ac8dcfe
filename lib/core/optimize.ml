type algorithm = Linear | Core_guided | Auto

let algorithm_label = function
  | Linear -> "linear"
  | Core_guided -> "core-guided"
  | Auto -> "auto"

type status = Optimal | Feasible | Infeasible | Unknown

type result = {
  best : bool array option;
  best_cost : int;
  lower_bound : int;
  status : status;
  algorithm_used : algorithm;
  cdcl_calls : int;
  cores : int;
  cpu_time_s : float;
}

(* hard clauses participate at weight [top], so any cost below [top] is a
   hard-feasible one and the ordering agrees with (hard violations, cost) *)
let weighted_clauses w =
  let top = Sat.Wcnf.top w in
  Array.append
    (Array.map (fun c -> (top, c)) w.Sat.Wcnf.hard)
    (Array.map (fun s -> (s.Sat.Wcnf.weight, s.Sat.Wcnf.clause)) w.Sat.Wcnf.soft)

let penalised_cost all x =
  Array.fold_left
    (fun acc (wt, c) -> if Sat.Assignment.satisfies_clause x c then acc else acc + wt)
    0 all

let incumbent ?(max_flips = 20_000) ?should_stop rng w =
  Cdcl.Walksat.minimise ~max_flips ?should_stop rng ~num_vars:(Sat.Wcnf.num_vars w)
    (weighted_clauses w)

let anneal_incumbent ?(samples = 8) ?(should_stop = fun () -> false) rng graph w =
  let n = Sat.Wcnf.num_vars w in
  let all = weighted_clauses w in
  let f = Sat.Cnf.make ~num_vars:n (Array.to_list (Array.map snd all)) in
  let weights = Array.map fst all in
  match
    Frontend.prepare ~adjust:false ~weights rng graph f
      ~activity:(fun k -> float_of_int weights.(k))
  with
  | None -> None
  | Some prepared ->
      let best = ref None in
      let k = ref 0 in
      while !k < samples && not (should_stop ()) do
        (match
           Anneal.Machine.run_via ~sample:(Anneal.Backend.sample Anneal.Backend.best_of) rng
             prepared.Frontend.job
         with
        | Error _ -> ()
        | Ok outcome -> (
            let x = Array.make (max n 1) false in
            List.iter
              (fun (node, v) -> if node < n then x.(node) <- v)
              outcome.Anneal.Machine.assignment;
            let cost = penalised_cost all x in
            match !best with
            | Some (c0, _) when c0 <= cost -> ()
            | _ -> best := Some (cost, x)));
        incr k
      done;
      !best

(* ---- exact search ------------------------------------------------------ *)

let model_prefix n model = Array.sub model 0 (min n (Array.length model))

let add_cardinality solver (card : Sat.Cardinality.t) =
  List.iter (fun c -> Cdcl.Solver.add_clause solver (Sat.Clause.lits c)) card.clauses

(* Descending linear search.  The bound strictly tightens, so each round's
   comparator clauses remain sound for every later round and are added
   permanently — and the one solver session keeps its learnt clauses.  The
   weighted count itself is a binary adder built once up front
   ({!Sat.Cardinality.weighted_sum}, O(softs · log sum_weights)); only the
   variable-free bound comparison is re-emitted per round, so arbitrary
   WDIMACS weight magnitudes cost log, not unary, space. *)
let linear ~should_stop ~max_conflicts ~gap_limit ~seed_best ~t0 w =
  let n = Sat.Wcnf.num_vars w in
  let m = Sat.Wcnf.num_soft w in
  let softs = Sat.Wcnf.soft_clauses w in
  let relaxed =
    List.mapi
      (fun k (_, c) -> Sat.Clause.make (Sat.Lit.pos (n + k) :: Sat.Clause.lits c))
      softs
  in
  let counter =
    Sat.Cardinality.weighted_sum ~num_vars:(n + m)
      (List.mapi (fun k (wt, _) -> (wt, Sat.Lit.pos (n + k))) softs)
  in
  let base =
    Sat.Cnf.make ~num_vars:counter.Sat.Cardinality.adder_num_vars
      (Array.to_list w.Sat.Wcnf.hard @ relaxed @ counter.Sat.Cardinality.adder_clauses)
  in
  let solver = Cdcl.Solver.create base in
  Cdcl.Solver.set_terminate solver should_stop;
  let calls = ref 0 in
  let finish ?best ~best_cost ~lower_bound status =
    {
      best;
      best_cost;
      lower_bound;
      status;
      algorithm_used = Linear;
      cdcl_calls = !calls;
      cores = 0;
      cpu_time_s = Unix.gettimeofday () -. t0;
    }
  in
  let solve_once () =
    incr calls;
    Cdcl.Solver.solve ?max_conflicts solver
  in
  let rec descend best ub =
    if ub <= gap_limit then
      finish ~best ~best_cost:ub ~lower_bound:0
        (if ub = 0 then Optimal else Feasible)
    else begin
      List.iter
        (fun c -> Cdcl.Solver.add_clause solver (Sat.Clause.lits c))
        (Sat.Cardinality.bound_clauses counter ~k:(ub - 1));
      match solve_once () with
      | Cdcl.Solver.Sat model ->
          let x = model_prefix n model in
          let cost = Sat.Wcnf.cost w x in
          descend x (min cost (ub - 1))
      | Cdcl.Solver.Unsat -> finish ~best ~best_cost:ub ~lower_bound:ub Optimal
      | Cdcl.Solver.Unknown _ -> finish ~best ~best_cost:ub ~lower_bound:0 Feasible
    end
  in
  match seed_best with
  | Some (cost, x) -> descend x cost
  | None -> (
      match solve_once () with
      | Cdcl.Solver.Sat model ->
          let x = model_prefix n model in
          descend x (Sat.Wcnf.cost w x)
      | Cdcl.Solver.Unsat ->
          let top = Sat.Wcnf.top w in
          finish ~best_cost:top ~lower_bound:top Infeasible
      | Cdcl.Solver.Unknown _ ->
          finish ~best_cost:(Sat.Wcnf.top w) ~lower_bound:0 Unknown)

(* Fu–Malik / WPM1: each UNSAT core pays its minimum weight into the lower
   bound; the core's soft clauses are split (remainder weight stays on the
   original, a clone relaxed by a fresh variable carries the paid weight)
   under a hard exactly-one over the relaxation variables. *)
let core_guided ~should_stop ~max_conflicts ~gap_limit ~seed_best ~t0 w =
  let n = Sat.Wcnf.num_vars w in
  let solver =
    Cdcl.Solver.create
      (Sat.Cnf.make ~num_vars:n (Array.to_list w.Sat.Wcnf.hard))
  in
  Cdcl.Solver.set_terminate solver should_stop;
  (* selector var → (remaining weight, clause body the selector relaxes) *)
  let softs : (int, int ref * Sat.Lit.t list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (wt, c) ->
      let s = Cdcl.Solver.new_var solver in
      let lits = Sat.Clause.lits c in
      Cdcl.Solver.add_clause solver (Sat.Lit.pos s :: lits);
      Hashtbl.add softs s (ref wt, lits))
    (Sat.Wcnf.soft_clauses w);
  let calls = ref 0 and cores = ref 0 and lb = ref 0 in
  let finish ?best ~best_cost ~lower_bound status =
    {
      best;
      best_cost;
      lower_bound;
      status;
      algorithm_used = Core_guided;
      cdcl_calls = !calls;
      cores = !cores;
      cpu_time_s = Unix.gettimeofday () -. t0;
    }
  in
  let incumbent_result status =
    match seed_best with
    | Some (cost, x) -> finish ~best:x ~best_cost:cost ~lower_bound:!lb status
    | None -> finish ~best_cost:(Sat.Wcnf.top w) ~lower_bound:!lb status
  in
  let rec iterate () =
    (* the incumbent can close the gap before the search does *)
    match seed_best with
    | Some (cost, _) when cost - !lb <= gap_limit ->
        incumbent_result (if cost = !lb then Optimal else Feasible)
    | _ -> (
        let assumptions =
          Hashtbl.fold
            (fun s (wt, _) acc -> if !wt > 0 then Sat.Lit.neg_of s :: acc else acc)
            softs []
          |> List.sort Sat.Lit.compare
        in
        incr calls;
        match Cdcl.Solver.solve_with_assumptions ?max_conflicts solver assumptions with
        | `Sat model ->
            let x = model_prefix n model in
            let cost = Sat.Wcnf.cost w x in
            (* WPM1 invariant: a model under every remaining selector costs
               exactly the paid lower bound *)
            finish ~best:x ~best_cost:cost ~lower_bound:(min !lb cost)
              (if cost = !lb then Optimal else Feasible)
        | `Unsat ->
            let top = Sat.Wcnf.top w in
            finish ~best_cost:top ~lower_bound:top Infeasible
        | `Unknown -> incumbent_result (match seed_best with Some _ -> Feasible | None -> Unknown)
        | `Unsat_assumptions -> (
            let core_sels =
              List.filter_map
                (fun l ->
                  let v = Sat.Lit.var l in
                  if Hashtbl.mem softs v then Some v else None)
                (Cdcl.Solver.unsat_core solver)
              |> List.sort_uniq Int.compare
            in
            match core_sels with
            | [] ->
                let top = Sat.Wcnf.top w in
                finish ~best_cost:top ~lower_bound:top Infeasible
            | _ ->
                incr cores;
                let wmin =
                  List.fold_left
                    (fun acc s -> min acc !(fst (Hashtbl.find softs s)))
                    max_int core_sels
                in
                lb := !lb + wmin;
                (match core_sels with
                | [ s ] ->
                    (* a singleton core is a soft clause refuted by the hard
                       clauses alone: its weight is paid forever, no
                       relaxation needed *)
                    let wt, _ = Hashtbl.find softs s in
                    wt := !wt - wmin
                | _ ->
                    let bs =
                      List.map
                        (fun s ->
                          let wt, lits = Hashtbl.find softs s in
                          wt := !wt - wmin;
                          let b = Cdcl.Solver.new_var solver in
                          let s' = Cdcl.Solver.new_var solver in
                          let clone = Sat.Lit.pos b :: lits in
                          Cdcl.Solver.add_clause solver (Sat.Lit.pos s' :: clone);
                          Hashtbl.add softs s' (ref wmin, clone);
                          Sat.Lit.pos b)
                        core_sels
                    in
                    (* exactly one relaxation fires: one clause and an
                       at-most-one *)
                    Cdcl.Solver.add_clause solver bs;
                    add_cardinality solver
                      (Sat.Cardinality.at_most_one ~num_vars:(Cdcl.Solver.num_vars solver) bs));
                iterate ()))
  in
  iterate ()

let default_seed = 20230225

let solve ?(algorithm = Auto) ?max_conflicts ?(should_stop = fun () -> false) ?(gap_limit = 0)
    ?max_flips ?rng ?graph w =
  let t0 = Unix.gettimeofday () in
  let rng =
    match rng with Some r -> r | None -> Stats.Rng.create ~seed:default_seed
  in
  (* heuristic incumbents as a fallback chain: WalkSAT draws first from
     [rng]; the annealer runs only when a graph is given and WalkSAT's model
     violates a hard clause.  Only a hard-feasible model may seed the exact
     search.  Both poll [should_stop] — the seeding phase must not outlive
     the budget the exact search is held to. *)
  let feasible (_, x) =
    if Sat.Wcnf.hard_satisfied w x then Some (Sat.Wcnf.cost w x, x) else None
  in
  let seed_best =
    match feasible (incumbent ?max_flips ~should_stop rng w) with
    | Some _ as walk -> walk
    | None ->
        Option.bind graph (fun g ->
            Option.bind (anneal_incumbent ~should_stop rng g w) feasible)
  in
  let algorithm =
    match algorithm with
    | Auto -> if Sat.Wcnf.sum_weights w <= 256 then Linear else Core_guided
    | a -> a
  in
  match algorithm with
  | Linear | Auto -> linear ~should_stop ~max_conflicts ~gap_limit ~seed_best ~t0 w
  | Core_guided -> core_guided ~should_stop ~max_conflicts ~gap_limit ~seed_best ~t0 w
