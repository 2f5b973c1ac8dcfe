(** Configuration and report types of the HyQSAT hybrid solver (paper
    §III, Fig. 4).

    A CDCL search whose first √K iterations (the warm-up stage, K being the
    estimated classical iteration count) are guided by the quantum annealer:
    each warm-up iteration sends the currently hardest clause queue through
    the frontend, samples the annealer once, and applies the backend's
    feedback strategy; afterwards the search continues as classic CDCL.
    The solve itself is {!Solve.run}. *)

type config = {
  cdcl : Cdcl.Config.t;
  graph : Chimera.Graph.t;
  noise : Anneal.Noise.t;
  queue_mode : Frontend.queue_mode;
  adjust_coefficients : bool;
  strategies : Backend.enabled;
  qa_period : int;  (** run the annealer every [qa_period] warm-up iterations *)
  warmup_fraction : float;
      (** warm-up length = [warmup_fraction × √K_est]; 1.0 = the paper *)
  qa_reads : int;
      (** annealer samples per QA call (best-of by energy, the multi-sample
          device mode); 1 = the paper's single-shot protocol *)
  qa_domains : int;
      (** OCaml domains fanning the [qa_reads] samples; the answer is
          deterministic in the seed whatever this is set to *)
  backend : Anneal.Backend.t;
      (** the annealer device every QA call goes through (default
          {!Anneal.Backend.best_of}); wrap with
          {!Anneal.Backend.with_faults} to exercise degradation *)
  supervision : Anneal.Supervisor.policy;
      (** deadline and retry count of the supervisor each solve wraps
          around [backend] *)
  seed : int;
}

val default_config : config
(** Noise-free annealer on the 16×16 graph, paper defaults everywhere. *)

val make_config :
  ?base:config ->
  ?cdcl:Cdcl.Config.t ->
  ?graph:Chimera.Graph.t ->
  ?noise:Anneal.Noise.t ->
  ?queue_mode:Frontend.queue_mode ->
  ?adjust_coefficients:bool ->
  ?strategies:Backend.enabled ->
  ?qa_period:int ->
  ?warmup_fraction:float ->
  ?qa_reads:int ->
  ?qa_domains:int ->
  ?backend:Anneal.Backend.t ->
  ?supervisor:Anneal.Supervisor.policy ->
  ?seed:int ->
  unit ->
  config
(** The one way call sites build configs: every field defaults to [base]
    (itself defaulting to {!default_config}), so adding a config field
    never breaks callers.  Do not construct [config] record literals
    outside this module. *)

val noisy_config : config
(** [make_config ~noise:Anneal.Noise.default_2000q ()] — the "real-world
    QA" mode of Table II. *)

type mode = Hybrid of config | Classic of Cdcl.Config.t
    (** what {!Solve.run} runs: the full quantum-guided pipeline, or the
        pure CDCL baseline through the same reporting type (zero QA). *)

type report = {
  result : Cdcl.Solver.result;
  iterations : int;  (** CDCL iterations executed {e by this call} *)
  warmup_iterations : int;
      (** of [iterations], those taken in the annealer-guided warm-up
          (0 in [Classic] mode) *)
  qa_calls : int;  (** successful annealer consultations *)
  qa_failures : int;
      (** failed supervised attempts, including breaker fast-fails (the
          supervisor's [stats.failures]) *)
  qa_degraded : int;
      (** warm-up iterations that fell through to pure CDCL because the
          supervised call failed (retries exhausted or breaker open) *)
  qa_time_us : float;  (** modelled annealer wall-clock *)
  frontend_time_s : float;  (** measured wall-clock ([Unix.gettimeofday]) *)
  backend_time_s : float;  (** measured wall-clock *)
  cdcl_time_s : float;
      (** measured wall-clock of the CDCL work: the warm-up steps plus the
          classic search *)
  strategy_uses : int array;  (** length 4: uses of strategies 1–4 *)
  solver_stats : Cdcl.Solver.stats;
      (** the statistics of the solver this call built and ran *)
  reused_clauses : int;
      (** clauses actually installed from the call's [import] list *)
  learnts : Sat.Lit.t array list;
      (** {!Cdcl.Solver.export_learnts} snapshot at the end of the call:
          root-level facts plus the most active short learnt clauses, for
          warm-starting a sibling solver over the same formula *)
  proof : Sat.Drat.t option;
      (** DRAT derivation when [cdcl.log_proof] is set — the strategy
          feedback only injects phase/priority hints, never clauses, so
          every logged step is an ordinary RUP-checkable learnt clause,
          root unit or deletion *)
}

val end_to_end_time_s : report -> float
(** frontend + QA (modelled) + backend + CDCL, fully serialised. *)

val end_to_end_pipelined_s : report -> float
(** Like {!end_to_end_time_s} but with the frontend overlapped with the
    annealer execution, as the paper deploys it (§VI-C: "the hardware
    embedding is pipelined with the clause queue generation"; §VII-A hides
    the switching latency the same way): max(frontend, QA) + backend +
    CDCL. *)

val estimate_iterations : Sat.Cnf.t -> int
(** The paper's K estimate from variable and clause counts. *)
