type mode = Hybrid_solver.mode =
  | Hybrid of Hybrid_solver.config
  | Classic of Cdcl.Config.t

let hybrid ?config () = Hybrid (Option.value ~default:Hybrid_solver.default_config config)
let classic ?config () = Classic (Option.value ~default:Cdcl.Config.minisat_like config)

(* what the hybrid warm-up did, for the report (all zero in [Classic]
   mode), and the wall time of the CDCL work in either mode *)
type tally = {
  mutable steps : int;  (* warm-up CDCL steps *)
  mutable qa_calls : int;
  mutable qa_failures : int;
  mutable qa_degraded : int;
  mutable qa_time_us : float;
  mutable frontend_s : float;
  mutable backend_s : float;
  mutable cdcl_s : float;
  strategy_uses : int array;
}

let strategy_index = function
  | Backend.S1_solved -> 0
  | Backend.S2_keep_assignment -> 1
  | Backend.S3_none -> 2
  | Backend.S4_reach_conflict -> 3

let strategy_name = function
  | Backend.S1_solved -> "s1"
  | Backend.S2_keep_assignment -> "s2"
  | Backend.S3_none -> "s3"
  | Backend.S4_reach_conflict -> "s4"

(* The hybrid warm-up (paper §III, Fig. 4): at most [warmup_fraction · √K]
   CDCL steps, every [qa_period]-th one preceded by an annealer
   consultation whose feedback steers the solver.  [Some answer] when the
   warm-up decided the instance. *)
let warm_up (config : Hybrid_solver.config) ~obs ~root ~embed_cache ~max_iterations
    ~should_stop tally solver f =
  let rng = Stats.Rng.create ~seed:config.seed in
  (* one supervised device per solve: breaker state is an instance
     property and the jitter seed derives from the solve seed, so runs
     replay exactly *)
  let supervisor =
    Anneal.Supervisor.create ~obs ~policy:config.supervision ~seed:(config.seed + 77)
      config.backend
  in
  (* pre-register so the export shows an explicit 0 when nothing degrades *)
  Obs.Metrics.incr ~by:0.0 obs "qa_degraded_total";
  let embed_cache =
    match embed_cache with Some c -> c | None -> Frontend.create_cache config.graph
  in
  let warmup =
    (* nothing to warm up when the solver is refuted before the search
       starts: at creation, or by the imported clauses *)
    if Cdcl.Solver.is_decided solver then 0
    else
      int_of_float
        (config.warmup_fraction
        *. sqrt (float_of_int (Hybrid_solver.estimate_iterations f)))
  in
  (* per-variable vote tally over every annealer sample: hints only flow for
     variables with a stable majority, turning many weak subset samples into
     a backbone-like signal *)
  let votes : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* one annealer consultation; [Some model] when the sample solves [f] *)
  let consult () =
    let span_iter =
      Obs.Span.start obs ~parent:root ~attrs:[ ("iter", string_of_int tally.steps) ] "warmup_iter"
    in
    let span_frontend = Obs.Span.start obs ~parent:span_iter "frontend" in
    let solved =
      match
        Frontend.prepare ~obs ~cache:embed_cache ~queue_mode:config.queue_mode
          ~adjust:config.adjust_coefficients rng config.graph f
          ~activity:(Cdcl.Solver.clause_activity solver)
      with
      | None ->
          Obs.Span.stop span_frontend;
          None
      | Some prepared -> (
          tally.frontend_s <- tally.frontend_s +. prepared.Frontend.time_s;
          (* stage spans carry the report's own (measured / modelled)
             times, so summing frontend+anneal+backend+cdcl spans in a
             trace equals end_to_end_time_s exactly *)
          Obs.Span.record obs ~parent:span_frontend
            ~dur_s:prepared.Frontend.embed_time_s "embed";
          Obs.Span.stop ~dur_s:prepared.Frontend.time_s span_frontend;
          (* the call's host wall time (device simulation and repair), on
             success and failure alike; the modelled device time is the
             "anneal" span below *)
          let t0 = Unix.gettimeofday () in
          let via =
            Anneal.Machine.run_via ~obs ~noise:config.noise ~reads:config.qa_reads
              ~domains:config.qa_domains ~sample:(Anneal.Supervisor.sample supervisor)
              rng prepared.Frontend.job
          in
          Obs.Span.record obs ~parent:span_iter ~dur_s:(Unix.gettimeofday () -. t0)
            "anneal_host";
          match via with
          | Error failure ->
              (* graceful degradation: the offload is skipped for this
                 warm-up iteration and the search falls through to the
                 pure-CDCL step — answers are never lost, only the quantum
                 guidance for this round *)
              tally.qa_degraded <- tally.qa_degraded + 1;
              Obs.Metrics.incr obs "qa_degraded_total";
              Obs.Span.record obs ~parent:span_iter
                ~attrs:
                  [
                    ("backend", Anneal.Backend.name config.backend);
                    ("status", Anneal.Backend.failure_label failure);
                  ]
                ~dur_s:0. "qa_call";
              None
          | Ok outcome -> (
              tally.qa_calls <- tally.qa_calls + 1;
              tally.qa_time_us <- tally.qa_time_us +. outcome.Anneal.Machine.time_us;
              Obs.Span.record obs ~parent:span_iter
                ~dur_s:(outcome.Anneal.Machine.time_us *. 1e-6)
                "anneal";
              Obs.Span.record obs ~parent:span_iter
                ~attrs:[ ("backend", Anneal.Backend.name config.backend); ("status", "ok") ]
                ~dur_s:(outcome.Anneal.Machine.time_us *. 1e-6)
                "qa_call";
              Obs.Metrics.incr obs "qa_calls_total";
              (* rate-limit phase hints: consecutive samples solve different
                 random subsets, and re-phasing every iteration oscillates *)
              List.iter
                (fun (v, b) ->
                  let cur = Option.value ~default:0 (Hashtbl.find_opt votes v) in
                  Hashtbl.replace votes v (cur + if b then 1 else -1))
                outcome.Anneal.Machine.assignment;
              let hint_filter v b =
                match Hashtbl.find_opt votes v with
                | Some margin -> if b then margin >= 4 else margin <= -4
                | None -> false
              in
              let applied =
                Backend.apply ~enabled:config.strategies ~hint_filter
                  Calibration.simulator_default solver f prepared outcome
              in
              let s = strategy_index applied.Backend.strategy in
              tally.backend_s <- tally.backend_s +. applied.Backend.time_s;
              tally.strategy_uses.(s) <- tally.strategy_uses.(s) + 1;
              Obs.Span.record obs ~parent:span_iter ~dur_s:applied.Backend.time_s
                "backend";
              Obs.Metrics.incr obs
                (Obs.Metrics.labelled "strategy_uses_total"
                   [ ("strategy", strategy_name applied.Backend.strategy) ]);
              applied.Backend.solved))
    in
    Obs.Span.stop span_iter;
    solved
  in
  (* cancellation is polled once per warm-up iteration: each one may cost
     an annealer call *)
  let rec loop () =
    if tally.steps >= warmup || tally.steps >= max_iterations || should_stop () then None
    else
      let solved = if tally.steps mod config.qa_period = 0 then consult () else None in
      match solved with
      | Some model -> Some (Cdcl.Solver.Sat model)
      | None -> (
          let t0 = Unix.gettimeofday () in
          let step = Cdcl.Solver.step solver in
          tally.cdcl_s <- tally.cdcl_s +. (Unix.gettimeofday () -. t0);
          tally.steps <- tally.steps + 1;
          match step with
          | `Continue -> loop ()
          | `Sat m -> Some (Cdcl.Solver.Sat m)
          | `Unsat -> Some Cdcl.Solver.Unsat
          | `Unsat_assumptions -> assert false (* no assumptions installed *))
  in
  let decided = loop () in
  tally.qa_failures <- (Anneal.Supervisor.stats supervisor).Anneal.Supervisor.failures;
  decided

let run ?(max_iterations = max_int) ?(should_stop = fun () -> false)
    ?(obs = Obs.Ctx.null) ?(parent = Obs.Span.none) ?embed_cache ?(import = []) mode f =
  let root =
    match mode with
    | Hybrid _ ->
        Obs.Span.start obs ~parent
          ~attrs:
            [
              ("vars", string_of_int (Sat.Cnf.num_vars f));
              ("clauses", string_of_int (Sat.Cnf.num_clauses f));
            ]
          "hybrid_solve"
    | Classic _ -> Obs.Span.start obs ~parent "classic_solve"
  in
  let solver =
    match mode with
    | Hybrid c ->
        (* the frontend ranks clauses by the paper activity/visit counters,
           so the hybrid solver must keep them *)
        Cdcl.Solver.create ~config:(Cdcl.Config.with_paper_stats c.Hybrid_solver.cdcl) f
    | Classic c -> Cdcl.Solver.create ~config:c f
  in
  Cdcl.Solver.set_obs solver obs;
  let reused_clauses =
    if import = [] then 0 else Cdcl.Solver.import_clauses solver import
  in
  Cdcl.Solver.set_terminate solver should_stop;
  let tally =
    {
      steps = 0;
      qa_calls = 0;
      qa_failures = 0;
      qa_degraded = 0;
      qa_time_us = 0.;
      frontend_s = 0.;
      backend_s = 0.;
      cdcl_s = 0.;
      strategy_uses = Array.make 4 0;
    }
  in
  let decided =
    match mode with
    | Hybrid config ->
        warm_up config ~obs ~root ~embed_cache ~max_iterations ~should_stop tally solver f
    | Classic _ -> None
  in
  let result =
    match decided with
    | Some a -> a
    | None ->
        (* the classic search, with whatever budget the warm-up left *)
        let max_iterations = max_iterations - tally.steps in
        let t0 = Unix.gettimeofday () in
        let a = Cdcl.Solver.solve ~max_iterations solver in
        tally.cdcl_s <- tally.cdcl_s +. (Unix.gettimeofday () -. t0);
        a
  in
  Obs.Span.record obs ~parent:root ~dur_s:tally.cdcl_s "cdcl";
  Cdcl.Solver.flush_obs solver;
  Obs.Span.add_attr root "result" (Sat.Answer.label result);
  Obs.Span.stop root;
  let stats = Cdcl.Solver.stats solver in
  {
    Hybrid_solver.result;
    iterations = stats.Cdcl.Solver.iterations;
    warmup_iterations = tally.steps;
    qa_calls = tally.qa_calls;
    qa_failures = tally.qa_failures;
    qa_degraded = tally.qa_degraded;
    qa_time_us = tally.qa_time_us;
    frontend_time_s = tally.frontend_s;
    backend_time_s = tally.backend_s;
    cdcl_time_s = tally.cdcl_s;
    strategy_uses = tally.strategy_uses;
    solver_stats = stats;
    reused_clauses;
    learnts = Cdcl.Solver.export_learnts solver;
    proof = Cdcl.Solver.proof solver;
  }
