type config = {
  cdcl : Cdcl.Config.t;
  graph : Chimera.Graph.t;
  noise : Anneal.Noise.t;
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

let make_config ?(base = default_config) ?cdcl ?graph ?noise ?queue_mode
    ?adjust_coefficients ?strategies ?qa_period ?warmup_fraction
    ?qa_reads ?qa_domains ?backend ?supervisor ?seed () =
  let v d o = Option.value ~default:d o in
  {
    cdcl = v base.cdcl cdcl;
    graph = v base.graph graph;
    noise = v base.noise noise;
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


type report = {
  result : Cdcl.Solver.result;
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
