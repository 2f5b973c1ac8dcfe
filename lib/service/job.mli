(** Solver jobs: one DIMACS instance plus its solving policy.

    A job is the unit of work the batch service schedules onto the worker
    pool.  Besides the formula it carries a wall-clock timeout (measured
    from the moment a worker starts it, not from enqueue), a step budget,
    and a bounded retry policy: an [Unknown] outcome (budget exhausted)
    is retried with a reseeded solver as long as attempts and deadline
    remain.

    A decision job whose input is not 3-SAT is converted by {!make}, and
    [original] keeps the input: models are projected back to it before
    being reported, and [certify] checks answers against it (models) or
    the solved formula (DRAT proofs) before they leave the service. *)

type qa_policy = {
  faults : Anneal.Backend.fault_profile;  (** faults injected into the simulator *)
  supervision : Anneal.Supervisor.policy;  (** deadline/retry/breaker *)
  reads : int;  (** annealer samples per QA call *)
  domains : int;  (** OCaml domains fanning the reads *)
}
(** The annealer policy hybrid members solve the job under.  Serialisable
    by construction (the device is {!Anneal.Backend.simulator} of
    [faults], not a closure) so specs can travel to worker domains and
    into telemetry. *)

val default_qa : qa_policy
(** Fault-free simulator, default supervision, single-shot reads. *)

type spec = {
  id : int;  (** caller-chosen, reported back in telemetry *)
  name : string;  (** display name, e.g. the CNF path *)
  formula : Sat.Cnf.t;  (** what the solvers run on (post-conversion) *)
  original : Sat.Cnf.t option;
      (** the input formula, when it differs from [formula]; its
          variables are a prefix of [formula]'s (the {!Sat.Three_sat}
          layout) *)
  wcnf : Sat.Wcnf.t option;
      (** [Some w] makes this an optimisation job: the worker runs the
          exact weighted-MaxSAT pipeline ({!Hyqsat.Optimize.solve}) on [w]
          instead of racing a decision portfolio on [formula].  [formula]
          still carries [w]'s hard clauses so warm-start keying and
          admission sizing keep working unchanged *)
  gap_limit : int;
      (** optimisation jobs: stop once [best_cost - lower_bound <= gap];
          0 (the default) demands a proven optimum *)
  certify : bool;  (** model-check Sat / proof-check Unsat before reporting;
          optimisation jobs certify cost and optimality
          ({!Check.Certify.certify_opt}) instead *)
  timeout_s : float option;  (** per-job wall-clock deadline; [None] = none *)
  max_iterations : int;  (** CDCL step budget per attempt *)
  retries : int;  (** extra attempts after an [Unknown] (0 = single shot) *)
  qa : qa_policy;  (** annealer backend/supervision for hybrid members *)
  seed : int;  (** base seed; attempt [k] reseeds with [seed + 7919·k] *)
}

val make :
  ?name:string ->
  ?original:Sat.Cnf.t ->
  ?wcnf:Sat.Wcnf.t ->
  ?gap_limit:int ->
  ?certify:bool ->
  ?timeout_s:float ->
  ?max_iterations:int ->
  ?retries:int ->
  ?qa:qa_policy ->
  ?seed:int ->
  id:int ->
  Sat.Cnf.t ->
  spec
(** [make ~id f] is a decision job on [f].  When [f] is not 3-SAT and no
    [original] is given, the job solves the {!Sat.Three_sat} conversion
    of [f] and keeps [f] as [original]; a caller that converted [f] itself passes
    the input as [original] and the converted formula as [f].  An
    optimisation job ([wcnf] given) is never converted.

    Defaults: [name] = ["job-<id>"], no [wcnf] (a decision job),
    [gap_limit] = 0, [certify] = [false], no timeout,
    [max_iterations] = [max_int],
    [retries] = 0, [qa] = {!default_qa}.  The default [seed] is derived from [id] so that two
    jobs in the same batch never share an attempt-seed sequence (a shared
    constant default made job [i] attempt [k+1] collide with job [i+1]
    attempt [k]). *)

val optimize :
  ?name:string ->
  ?gap_limit:int ->
  ?certify:bool ->
  ?timeout_s:float ->
  ?max_iterations:int ->
  ?retries:int ->
  ?qa:qa_policy ->
  ?seed:int ->
  id:int ->
  Sat.Wcnf.t ->
  spec
(** An optimisation job over a weighted formula: {!make} with [wcnf] set
    and [formula] = the hard clauses of [w] (so size-based admission and
    warm-start keying see the decision core of the instance). *)

val original_formula : spec -> Sat.Cnf.t
(** The formula answers are reported against: [original] if present,
    otherwise [formula]. *)

val attempt_seed : spec -> int -> int
(** [attempt_seed spec k] is the reseeded base for attempt [k] (0-based). *)

(** Why a job ended without a definite answer (= {!Sat.Answer.reason}).
    [Cert_failed] means a solver claimed Sat/Unsat but the certification
    check rejected the claim — the answer is withheld rather than
    reported wrong. *)
type unknown_reason = Sat.Answer.reason =
  | Timeout
  | Budget
  | Cancelled
  | Cert_failed

(** = {!Sat.Answer.t}: job outcomes share their constructors with
    [Cdcl.Solver.result], so batch code moves solver answers into
    outcomes without conversion. *)
type outcome = Sat.Answer.t =
  | Sat of bool array
  | Unsat
  | Unknown of unknown_reason

val outcome_label : outcome -> string
(** ["sat"], ["unsat"], ["unknown:timeout"], ["unknown:budget"],
    ["unknown:cancelled"], ["unknown:cert-failed"] — the stable strings
    used in telemetry. *)
