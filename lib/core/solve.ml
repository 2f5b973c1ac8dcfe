type mode = Hybrid_solver.mode =
  | Hybrid of Hybrid_solver.config
  | Classic of Cdcl.Config.t

let hybrid ?config () = Hybrid (Option.value ~default:Hybrid_solver.default_config config)
let classic ?config () = Classic (Option.value ~default:Cdcl.Config.minisat_like config)
let mode_label = Hybrid_solver.mode_label

let run ?supervisor ?max_iterations ?should_stop ?obs ?parent ?solver
    ?embed_cache ?assumptions ?import mode f =
  Hybrid_solver.run ?supervisor ?max_iterations ?should_stop ?obs ?parent
    ?solver ?embed_cache ?assumptions ?import mode f

type objective = Decision | Maximize

let objective_label = function Decision -> "decision" | Maximize -> "maxsat"

let optimize ?(mode = Hybrid Hybrid_solver.default_config) ?algorithm ?max_conflicts
    ?timeout_s ?should_stop ?gap_limit ?seed w =
  (* hybrid mode contributes its hardware graph, so the annealer can stand
     in for a hard-infeasible WalkSAT incumbent, sampled exactly as the
     decision pipeline would sample it *)
  let graph =
    match mode with
    | Hybrid c -> Some c.Hybrid_solver.graph
    | Classic _ -> None
  in
  let rng = Option.map (fun seed -> Stats.Rng.create ~seed) seed in
  Optimize.solve ?algorithm ?max_conflicts ?timeout_s ?should_stop ?gap_limit ?rng ?graph w

module Session = struct
  type answer =
    [ `Sat of bool array
    | `Unsat
    | `Unsat_assumptions of Sat.Lit.t list
    | `Unknown of Sat.Answer.reason ]

  type t = {
    mode : mode;
    obs : Obs.Ctx.t;
    supervisor : Anneal.Supervisor.t option;
    embed_cache : Frontend.cache option;
    solver : Cdcl.Solver.t;
    (* newest first; [List.rev] order matches the solver's original-clause
       numbering (one origin index per [add_clause], installed or not) *)
    mutable clauses_rev : Sat.Clause.t list;
    mutable formula : Sat.Cnf.t option; (* memo, invalidated on mutation *)
    mutable solves : int;
    mutable last_report : Hybrid_solver.report option;
  }

  let create ?(mode = Classic Cdcl.Config.minisat_like) ?(obs = Obs.Ctx.null) () =
    let cdcl_config =
      (* hybrid sessions feed the solver's paper counters to the frontend's
         clause ranking, so tracking must stay on for them *)
      match mode with
      | Hybrid c -> Cdcl.Config.with_paper_stats c.Hybrid_solver.cdcl
      | Classic c -> c
    in
    let supervisor, embed_cache =
      match mode with
      | Hybrid c ->
          ( Some
              (Anneal.Supervisor.create ~obs ~policy:c.Hybrid_solver.supervision
                 ~seed:(c.Hybrid_solver.seed + 77) c.Hybrid_solver.backend),
            Some (Frontend.create_cache c.Hybrid_solver.graph) )
      | Classic _ -> (None, None)
    in
    let solver =
      Cdcl.Solver.create ~config:cdcl_config (Sat.Cnf.make ~num_vars:0 [])
    in
    Cdcl.Solver.set_obs solver obs;
    {
      mode;
      obs;
      supervisor;
      embed_cache;
      solver;
      clauses_rev = [];
      formula = None;
      solves = 0;
      last_report = None;
    }

  let num_vars s = Cdcl.Solver.num_vars s.solver

  let new_var s =
    s.formula <- None;
    Cdcl.Solver.new_var s.solver

  let add_clause s lits =
    s.formula <- None;
    s.clauses_rev <- Sat.Clause.make lits :: s.clauses_rev;
    Cdcl.Solver.add_clause s.solver lits

  let add_formula s f =
    (* admit the formula's variables first so session numbering matches the
       formula's even when trailing variables appear in no clause *)
    while num_vars s < Sat.Cnf.num_vars f do
      ignore (new_var s)
    done;
    Sat.Cnf.iter_clauses (fun _ c -> add_clause s (Sat.Clause.lits c)) f

  let formula s =
    match s.formula with
    | Some f -> f
    | None ->
        let f = Sat.Cnf.make ~num_vars:(num_vars s) (List.rev s.clauses_rev) in
        s.formula <- Some f;
        f

  let solve ?(assumptions = []) ?max_iterations ?should_stop s =
    let f = formula s in
    let report =
      run ?supervisor:s.supervisor ?max_iterations ?should_stop ~obs:s.obs
        ~solver:s.solver ?embed_cache:s.embed_cache ~assumptions s.mode f
    in
    s.solves <- s.solves + 1;
    s.last_report <- Some report;
    match report.Hybrid_solver.result with
    | Cdcl.Solver.Sat m -> `Sat m
    | Cdcl.Solver.Unsat -> (
        match report.Hybrid_solver.assumption_core with
        | Some core -> `Unsat_assumptions core
        | None -> `Unsat)
    | Cdcl.Solver.Unknown r -> `Unknown r

  let model_value s v = Cdcl.Solver.model_value s.solver v
  let unsat_core s = Cdcl.Solver.unsat_core s.solver
  let solver s = s.solver
  let solve_count s = s.solves
  let last_report s = s.last_report

  let export_learnts ?max_len ?max_clauses s =
    Cdcl.Solver.export_learnts ?max_len ?max_clauses s.solver

  let import_clauses s cls = Cdcl.Solver.import_clauses s.solver cls
  let retire s = Cdcl.Solver.flush_obs s.solver
end
