type config = {
  cdcl : Cdcl.Config.t;
  graph : Chimera.Graph.t;
  noise : Anneal.Noise.t;
  timing : Anneal.Timing.t;
  calibration : Calibration.t;
  queue_mode : Frontend.queue_mode;
  adjust_coefficients : bool;
  strategies : Backend.enabled;
  qa_period : int;
  warmup_fraction : float;
  qa_reads : int;
  qa_domains : int;
  backend : Anneal.Backend.t;
  supervision : Anneal.Supervisor.policy;
  seed : int;
}

let default_config =
  {
    cdcl = Cdcl.Config.minisat_like;
    graph = Chimera.Graph.standard_2000q ();
    noise = Anneal.Noise.noise_free;
    timing = Anneal.Timing.d_wave_2000q;
    calibration = Calibration.simulator_default;
    queue_mode = Frontend.Activity_bfs;
    adjust_coefficients = true;
    strategies = Backend.all_enabled;
    qa_period = 1;
    warmup_fraction = 1.0;
    qa_reads = 1;
    qa_domains = 1;
    backend = Anneal.Backend.best_of;
    supervision = Anneal.Supervisor.default_policy;
    seed = 20230225;
  }

let make_config ?(base = default_config) ?cdcl ?graph ?noise ?timing ?calibration
    ?queue_mode ?adjust_coefficients ?strategies ?qa_period ?warmup_fraction
    ?qa_reads ?qa_domains ?backend ?supervisor ?seed () =
  let v d o = Option.value ~default:d o in
  {
    cdcl = v base.cdcl cdcl;
    graph = v base.graph graph;
    noise = v base.noise noise;
    timing = v base.timing timing;
    calibration = v base.calibration calibration;
    queue_mode = v base.queue_mode queue_mode;
    adjust_coefficients = v base.adjust_coefficients adjust_coefficients;
    strategies = v base.strategies strategies;
    qa_period = v base.qa_period qa_period;
    warmup_fraction = v base.warmup_fraction warmup_fraction;
    qa_reads = v base.qa_reads qa_reads;
    qa_domains = v base.qa_domains qa_domains;
    backend = v base.backend backend;
    supervision = v base.supervision supervisor;
    seed = v base.seed seed;
  }

let noisy_config = make_config ~noise:Anneal.Noise.default_2000q ()

type mode = Hybrid of config | Classic of Cdcl.Config.t

let mode_label = function Hybrid _ -> "hybrid" | Classic _ -> "classic"

type report = {
  result : Cdcl.Solver.result;
  assumption_core : Sat.Lit.t list option;
  iterations : int;
  warmup_iterations : int;
  qa_calls : int;
  qa_failures : int;
  qa_degraded : int;
  qa_time_us : float;
  frontend_time_s : float;
  backend_time_s : float;
  cdcl_time_s : float;
  strategy_uses : int array;
  solver_stats : Cdcl.Solver.stats;
  reused_clauses : int;
  learnts : Sat.Lit.t array list;
  proof : Sat.Drat.t option;
}

let assumptions_satisfied assumptions m =
  List.for_all
    (fun l ->
      let v = Sat.Lit.var l in
      v < Array.length m && (if Sat.Lit.is_pos l then m.(v) else not m.(v)))
    assumptions

let end_to_end_time_s r =
  r.frontend_time_s +. (r.qa_time_us *. 1e-6) +. r.backend_time_s +. r.cdcl_time_s

let end_to_end_pipelined_s r =
  Float.max r.frontend_time_s (r.qa_time_us *. 1e-6) +. r.backend_time_s +. r.cdcl_time_s

(* the paper estimates K from the numbers of variables and clauses; random
   3-SAT hardness grows with the clause/variable ratio, so we use
   K ≈ m · r with a floor — accurate to the order of magnitude on the
   Table I suite, which is all √K needs *)
let estimate_iterations f =
  let m = float_of_int (Sat.Cnf.num_clauses f) in
  let n = float_of_int (max 1 (Sat.Cnf.num_vars f)) in
  let ratio = m /. n in
  int_of_float (Float.max 16. (m *. ratio))

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

let solve_hybrid ~config ?supervisor ~max_iterations ~should_stop ~obs ~parent
    ~solver:solver0 ~embed_cache:cache0 ~assumptions ~import f =
  let traced = not (Obs.Ctx.is_null obs) in
  let root =
    if traced then
      Obs.Span.start obs ~parent
        ~attrs:
          [
            ("vars", string_of_int (Sat.Cnf.num_vars f));
            ("clauses", string_of_int (Sat.Cnf.num_clauses f));
          ]
        "hybrid_solve"
    else Obs.Span.none
  in
  let rng = Stats.Rng.create ~seed:config.seed in
  (* default: one supervisor per solve — breaker state is an instance
     property and the jitter seed derives from the solve seed, so runs
     replay exactly.  A caller-supplied supervisor is shared across solves
     (the server's per-pool device): breaker state then carries over and
     [qa_failures] is reported as this solve's delta. *)
  let supervisor =
    match supervisor with
    | Some s -> s
    | None ->
        Anneal.Supervisor.create ~obs ~policy:config.supervision ~seed:(config.seed + 77)
          config.backend
  in
  let failures_at_start = (Anneal.Supervisor.stats supervisor).Anneal.Supervisor.failures in
  (* pre-register so the export shows an explicit 0 when nothing degrades *)
  Obs.Metrics.incr ~by:0.0 obs "qa_degraded_total";
  let embed_cache =
    match cache0 with Some c -> c | None -> Frontend.create_cache config.graph
  in
  let owns_solver = Option.is_none solver0 in
  let solver =
    match solver0 with
    | Some s -> s
    | None ->
        (* the frontend ranks clauses by the paper activity/visit counters,
           so hybrid-owned solvers must keep them *)
        Cdcl.Solver.create ~config:(Cdcl.Config.with_paper_stats config.cdcl) f
  in
  Cdcl.Solver.set_obs solver obs;
  let reused_clauses =
    if import = [] then 0 else Cdcl.Solver.import_clauses solver import
  in
  Cdcl.Solver.set_assumptions solver assumptions;
  let warmup =
    (* nothing to warm up when a reused solver already holds the answer *)
    if Cdcl.Solver.is_decided solver then 0
    else
      int_of_float
        (config.warmup_fraction *. sqrt (float_of_int (estimate_iterations f)))
  in
  let qa_calls = ref 0 in
  let qa_degraded = ref 0 in
  let qa_time_us = ref 0. in
  let frontend_time = ref 0. in
  let backend_time = ref 0. in
  let cdcl_time = ref 0. in
  let strategy_uses = Array.make 4 0 in
  let solved_by_qa = ref None in
  (* per-variable vote tally over every annealer sample: hints only flow for
     variables with a stable majority, turning many weak subset samples into
     a backbone-like signal *)
  let votes : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let iter = ref 0 in
  let result = ref (Cdcl.Solver.Unknown Sat.Answer.Budget) in
  let core = ref None in
  let running = ref true in
  while !running && !iter < max_iterations && not (!iter land 127 = 0 && should_stop ()) do
    (* warm-up: consult the annealer before stepping *)
    if !iter < warmup && !iter mod config.qa_period = 0 && !solved_by_qa = None then begin
      let span_iter =
        if traced then
          Obs.Span.start obs ~parent:root
            ~attrs:[ ("iter", string_of_int !iter) ]
            "warmup_iter"
        else Obs.Span.none
      in
      let span_frontend = Obs.Span.start obs ~parent:span_iter "frontend" in
      (match
         Frontend.prepare ~obs ~cache:embed_cache ~queue_mode:config.queue_mode
           ~adjust:config.adjust_coefficients rng config.graph f
           ~activity:(Cdcl.Solver.clause_activity solver)
       with
      | None -> Obs.Span.stop span_frontend
      | Some prepared ->
          frontend_time := !frontend_time +. prepared.Frontend.cpu_time_s;
          (* stage spans carry the report's own (CPU / modelled) times, so
             summing frontend+anneal+backend+cdcl spans in a trace equals
             end_to_end_time_s exactly *)
          Obs.Span.record obs ~parent:span_frontend
            ~dur_s:prepared.Frontend.embed_time_s "embed";
          Obs.Span.stop ~dur_s:prepared.Frontend.cpu_time_s span_frontend;
          let qa_result =
            Anneal.Machine.run_via ~obs ~noise:config.noise ~timing:config.timing
              ~reads:config.qa_reads ~domains:config.qa_domains
              ~sample:(Anneal.Supervisor.sample supervisor)
              rng prepared.Frontend.job
          in
          (match qa_result with
          | Error failure ->
              (* graceful degradation: the offload is skipped for this
                 warm-up iteration and the search falls through to the
                 pure-CDCL step below — answers are never lost, only the
                 quantum guidance for this round *)
              incr qa_degraded;
              Obs.Metrics.incr obs "qa_degraded_total";
              if traced then
                Obs.Span.record obs ~parent:span_iter
                  ~attrs:
                    [
                      ("backend", Anneal.Backend.name config.backend);
                      ("status", Anneal.Backend.failure_label failure);
                    ]
                  ~dur_s:0. "qa_call"
          | Ok outcome ->
              incr qa_calls;
              qa_time_us := !qa_time_us +. outcome.Anneal.Machine.time_us;
              Obs.Span.record obs ~parent:span_iter
                ~dur_s:(outcome.Anneal.Machine.time_us *. 1e-6)
                "anneal";
              if traced then
                Obs.Span.record obs ~parent:span_iter
                  ~attrs:
                    [
                      ("backend", Anneal.Backend.name config.backend);
                      ("status", "ok");
                    ]
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
                Backend.apply ~enabled:config.strategies ~hint_filter config.calibration
                  solver f prepared outcome
              in
              backend_time := !backend_time +. applied.Backend.cpu_time_s;
              strategy_uses.(strategy_index applied.Backend.strategy) <-
                strategy_uses.(strategy_index applied.Backend.strategy) + 1;
              Obs.Span.record obs ~parent:span_iter ~dur_s:applied.Backend.cpu_time_s
                "backend";
              if traced then
                Obs.Metrics.incr obs
                  (Obs.Metrics.labelled "strategy_uses_total"
                     [ ("strategy", strategy_name applied.Backend.strategy) ]);
              (match applied.Backend.solved with
              | Some model
                when assumptions = [] || assumptions_satisfied assumptions model
                ->
                  solved_by_qa := Some model
              | _ -> ())));
      Obs.Span.stop span_iter
    end;
    (match !solved_by_qa with
    | Some model ->
        result := Cdcl.Solver.Sat model;
        running := false
    | None -> (
        let t0 = Sys.time () in
        let step = Cdcl.Solver.step solver in
        cdcl_time := !cdcl_time +. (Sys.time () -. t0);
        incr iter;
        match step with
        | `Continue -> ()
        | `Sat m ->
            result := Cdcl.Solver.Sat m;
            running := false
        | `Unsat ->
            result := Cdcl.Solver.Unsat;
            running := false
        | `Unsat_assumptions ->
            (* satisfiable as far as known, but not under these assumptions;
               [Unsat] + [assumption_core] carries the distinction *)
            core := Some (Cdcl.Solver.unsat_core solver);
            result := Cdcl.Solver.Unsat;
            running := false))
  done;
  let result =
    (* the loop leaves [running] true only when it stopped undecided — a
       budget ran out or the cancellation callback fired *)
    if !running then
      Cdcl.Solver.Unknown
        (if should_stop () then Sat.Answer.Cancelled else Sat.Answer.Budget)
    else !result
  in
  if traced then begin
    Obs.Span.record obs ~parent:root ~dur_s:!cdcl_time "cdcl";
    (* a caller-owned (session) solver outlives this solve; its lifetime
       counters are flushed by whoever retires it *)
    if owns_solver then Cdcl.Solver.flush_obs solver;
    Obs.Span.add_attr root "result" (Sat.Answer.label result);
    Obs.Span.stop root
  end;
  {
    result;
    assumption_core = !core;
    iterations = !iter;
    warmup_iterations = min warmup !iter;
    qa_calls = !qa_calls;
    qa_failures =
      (Anneal.Supervisor.stats supervisor).Anneal.Supervisor.failures - failures_at_start;
    qa_degraded = !qa_degraded;
    qa_time_us = !qa_time_us;
    frontend_time_s = !frontend_time;
    backend_time_s = !backend_time;
    cdcl_time_s = !cdcl_time;
    strategy_uses;
    solver_stats = Cdcl.Solver.stats solver;
    reused_clauses;
    learnts = Cdcl.Solver.export_learnts solver;
    proof = Cdcl.Solver.proof solver;
  }

let solve_classic_on ~config ~max_iterations ~should_stop ~obs ~parent
    ~solver:solver0 ~assumptions ~import f =
  let traced = not (Obs.Ctx.is_null obs) in
  let root =
    if traced then Obs.Span.start obs ~parent "classic_solve" else Obs.Span.none
  in
  let owns_solver = Option.is_none solver0 in
  let solver =
    match solver0 with Some s -> s | None -> Cdcl.Solver.create ~config f
  in
  Cdcl.Solver.set_terminate solver should_stop;
  Cdcl.Solver.set_obs solver obs;
  let reused_clauses =
    if import = [] then 0 else Cdcl.Solver.import_clauses solver import
  in
  let iterations0 = (Cdcl.Solver.stats solver).Cdcl.Solver.iterations in
  let core = ref None in
  let t0 = Sys.time () in
  let result =
    match assumptions with
    | [] -> Cdcl.Solver.solve ~max_iterations solver
    | lits -> (
        match Cdcl.Solver.solve_with_assumptions ~max_iterations solver lits with
        | `Sat m -> Cdcl.Solver.Sat m
        | `Unsat -> Cdcl.Solver.Unsat
        | `Unsat_assumptions ->
            core := Some (Cdcl.Solver.unsat_core solver);
            Cdcl.Solver.Unsat
        | `Unknown ->
            Cdcl.Solver.Unknown
              (if should_stop () then Sat.Answer.Cancelled else Sat.Answer.Budget))
  in
  let elapsed = Sys.time () -. t0 in
  if traced then begin
    Obs.Span.record obs ~parent:root ~dur_s:elapsed "cdcl";
    if owns_solver then Cdcl.Solver.flush_obs solver;
    Obs.Span.add_attr root "result" (Sat.Answer.label result);
    Obs.Span.stop root
  end;
  let stats = Cdcl.Solver.stats solver in
  {
    result;
    assumption_core = !core;
    iterations = stats.Cdcl.Solver.iterations - iterations0;
    warmup_iterations = 0;
    qa_calls = 0;
    qa_failures = 0;
    qa_degraded = 0;
    qa_time_us = 0.;
    frontend_time_s = 0.;
    backend_time_s = 0.;
    cdcl_time_s = elapsed;
    strategy_uses = Array.make 4 0;
    solver_stats = stats;
    reused_clauses;
    learnts = Cdcl.Solver.export_learnts solver;
    proof = Cdcl.Solver.proof solver;
  }

let run ?supervisor ?(max_iterations = max_int) ?(should_stop = fun () -> false)
    ?(obs = Obs.Ctx.null) ?(parent = Obs.Span.none) ?solver ?embed_cache
    ?(assumptions = []) ?(import = []) mode f =
  match mode with
  | Hybrid config ->
      solve_hybrid ~config ?supervisor ~max_iterations ~should_stop ~obs ~parent
        ~solver ~embed_cache ~assumptions ~import f
  | Classic config ->
      (* no annealer in the loop: the embed cache has nothing to key *)
      ignore (embed_cache : Frontend.cache option);
      solve_classic_on ~config ~max_iterations ~should_stop ~obs ~parent ~solver
        ~assumptions ~import f
