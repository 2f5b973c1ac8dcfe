type job_result = {
  spec : Job.spec;
  outcome : Job.outcome;
  record : Telemetry.record;
  race : Portfolio.race_report;
  error : string option;
}

(* partially applying the name yields the [members ~spec ~seed] closure
   shape [run] expects, with the job's own QA policy picked up per spec *)
let solo ?grid ?log_proof name ~spec ~seed =
  Portfolio.members_named ?grid ?log_proof ~qa:spec.Job.qa ~seed [ name ]

(* one name for every way a job can be solved: a stock member runs solo, and
   "portfolio" races them all.  A certified job always logs proofs *)
let resolve ?grid ?(log_proof = false) solver ~spec ~seed =
  let log_proof = log_proof || spec.Job.certify in
  if solver = "portfolio" then
    Portfolio.members_named ?grid ~log_proof ~qa:spec.Job.qa ~seed Portfolio.member_names
  else solo ?grid ~log_proof solver ~spec ~seed

(* warm-start pool: learnt clauses keyed by formula structure, shared
   across batch workers.  Sound by construction: stored clauses are only
   reused when the stored formula equals the job's (fingerprint narrows,
   [Sat.Cnf.equal] decides), so every imported clause is an implicate of
   the formula about to be solved.  The mutex also establishes the
   happens-before edge that publishes clause arrays across worker
   domains. *)
module Warm = struct
  type entry = { formula : Sat.Cnf.t; mutable clauses : Sat.Lit.t array list }
  type t = { mutex : Mutex.t; table : (string, entry) Hashtbl.t }

  let create () = { mutex = Mutex.create (); table = Hashtbl.create 16 }

  let fingerprint f =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            (Sat.Cnf.num_vars f, List.map Sat.Clause.lits (Sat.Cnf.clauses f))
            []))

  let lookup t f =
    let key = fingerprint f in
    Mutex.lock t.mutex;
    let r =
      match Hashtbl.find_opt t.table key with
      | Some e when Sat.Cnf.equal e.formula f -> e.clauses
      | _ -> []
    in
    Mutex.unlock t.mutex;
    r

  let store t f clauses =
    if clauses <> [] then begin
      let key = fingerprint f in
      Mutex.lock t.mutex;
      (match Hashtbl.find_opt t.table key with
      | Some e when Sat.Cnf.equal e.formula f -> e.clauses <- clauses
      | _ -> Hashtbl.replace t.table key { formula = f; clauses });
      Mutex.unlock t.mutex
    end
end

(* 3-SAT conversion keeps original variables first, so projecting a model of
   the converted formula is a prefix restriction *)
let project_model ~original m =
  let n = Sat.Cnf.num_vars original in
  if Array.length m > n then Array.sub m 0 n else m

(* the one constructor of a job result and its telemetry record: identity
   from [spec], activity from [stats] (the winner's, or an idle stand-in
   carrying the iterations spent).  Without a [race] the job raced nothing:
   its race report is empty and lasts [solve_time_s] *)
let result ?(verified = "") ?(winner = "") ?(attempts = 0) ?(solve_time_s = 0.)
    ?(warm_start = false) ?(cost = -1) ?(lower_bound = -1) ?race (spec : Job.spec) outcome
    ~queue_wait_s (stats : Portfolio.solve_stats) =
  let record =
    {
      Telemetry.job_id = spec.Job.id;
      job_name = spec.Job.name;
      outcome = Job.outcome_label outcome;
      verified;
      winner;
      attempts;
      queue_wait_s;
      solve_time_s;
      iterations = stats.Portfolio.iterations;
      qa_calls = stats.Portfolio.qa_calls;
      qa_failures = stats.Portfolio.qa_failures;
      degraded = stats.Portfolio.qa_degraded;
      strategy_uses = Array.copy stats.Portfolio.strategy_uses;
      warm_start;
      reused_clauses = stats.Portfolio.reused_clauses;
      cost;
      lower_bound;
    }
  in
  let race =
    match race with
    | Some r -> r
    | None -> { Portfolio.winner = None; members = []; wall_time_s = solve_time_s }
  in
  { spec; outcome; record; race; error = None }

let unstarted spec outcome ~queue_wait_s =
  result spec outcome ~queue_wait_s (Portfolio.idle_stats outcome)

(* the job's one stop switch, built once per job from the caller's
   [cancel] (drain, SIGINT) and the job deadline: every phase below — the
   race, the retry check, the MaxSAT search, certification — polls
   [should_stop], and [reason] says why a stopped job ends Unknown *)
type stop = { should_stop : unit -> bool; reason : unit -> Job.unknown_reason }

let stop_switch ~cancel spec =
  let deadline =
    match spec.Job.timeout_s with None -> Deadline.none | Some s -> Deadline.after s
  in
  {
    should_stop = (fun () -> cancel () || Deadline.expired deadline);
    reason =
      (fun () ->
        if cancel () then Job.Cancelled
        else if Deadline.expired deadline then Job.Timeout
        else Job.Budget);
  }

(* certification hook shared by decision and optimisation jobs: [check]
   runs the checker, polling the job's stop switch.  A claim the checker
   rejects is withheld as [Unknown Cert_failed] rather than handed to the
   caller wrong; a check that was stopped certifies nothing, so the claim
   is withheld as [Unknown Cancelled] / [Unknown Timeout] instead.
   [label] names the verdict in the record's [verified] field *)
let certified stop ~label outcome check =
  let stopped = ref false in
  let should_stop () =
    stopped := stop.should_stop ();
    !stopped
  in
  let verdict = check ~should_stop in
  match verdict with
  | Ok _ -> (outcome, label verdict)
  | Error _ when !stopped -> (Job.Unknown (stop.reason ()), label verdict)
  | Error _ -> (Job.Unknown Job.Cert_failed, label verdict)

(* decision jobs: the Sat model is checked against the original formula,
   the Unsat DRAT proof against the solved one.  [Job.outcome] and
   [Cdcl.Solver.result] are the same type ({!Sat.Answer.t}), so the
   outcome feeds the checker directly *)
let certify_outcome stop (spec : Job.spec) (race : Portfolio.race_report) outcome =
  if not spec.Job.certify then (outcome, "")
  else
    let original = Job.original_formula spec in
    let proof =
      match (outcome, race.Portfolio.winner) with
      | Job.Unsat, Some w -> w.Portfolio.stats.Portfolio.proof
      | _ -> None
    in
    certified stop ~label:Check.Certify.verdict_label outcome
      (fun ~should_stop ->
        Check.Certify.certify ~should_stop ~original ~solved:spec.Job.formula ?proof outcome)

let max_member_iterations (race : Portfolio.race_report) =
  List.fold_left
    (fun acc (m : Portfolio.member_report) -> max acc m.Portfolio.stats.Portfolio.iterations)
    0 race.Portfolio.members

(* optimisation jobs bypass the portfolio race entirely: the exact
   weighted-MaxSAT pipeline is deterministic given its seed, so there is
   nothing to race and nothing to retry.  The result flows through the
   same [job_result]/[Telemetry.record] shapes (with an empty race report)
   so batch aggregation, tables and the wire protocol need no second
   path. *)
let process_opt stop ~obs ~parent (spec : Job.spec) w ~enqueued_at () =
  let traced = not (Obs.Ctx.is_null obs) in
  let started = Unix.gettimeofday () in
  let queue_wait_s = started -. enqueued_at in
  let span =
    if traced then
      Obs.Span.start obs ~parent
        ~attrs:[ ("gap_limit", string_of_int spec.Job.gap_limit) ]
        "optimize"
    else Obs.Span.none
  in
  (* the hybrid graph lets the annealer stand in for a hard-infeasible
     WalkSAT incumbent, sampled exactly as the decision pipeline samples *)
  let r =
    Hyqsat.Optimize.solve
      ?max_conflicts:
        (if spec.Job.max_iterations = max_int then None else Some spec.Job.max_iterations)
      ~should_stop:stop.should_stop ~gap_limit:spec.Job.gap_limit
      ~rng:(Stats.Rng.create ~seed:(Job.attempt_seed spec 0))
      ~graph:Hyqsat.Hybrid_solver.default_config.Hyqsat.Hybrid_solver.graph w
  in
  Obs.Span.stop span;
  let solve_time_s = Unix.gettimeofday () -. started in
  let outcome =
    match (r.Hyqsat.Optimize.status, r.Hyqsat.Optimize.best) with
    | (Hyqsat.Optimize.Optimal | Hyqsat.Optimize.Feasible), Some m -> Job.Sat m
    | Hyqsat.Optimize.Infeasible, _ -> Job.Unsat
    | _ -> Job.Unknown (stop.reason ())
  in
  let outcome, verified =
    match outcome with
    | _ when not spec.Job.certify -> (outcome, "")
    | Job.Unknown _ -> (outcome, "") (* no claim, nothing to certify *)
    | Job.Sat _ | Job.Unsat ->
        (* certification re-solves stay inside the job's budget: the
           conflict cap and the job's stop switch both reach the fresh
           solvers through certify_opt — the expensive
           re-solves only happen for Optimal/Infeasible claims, which the
           search proved before the deadline, so there is budget left to
           check them *)
        certified stop ~label:Check.Certify.opt_verdict_label outcome
          (fun ~should_stop ->
            Check.Certify.certify_opt
              ?max_conflicts:
                (if spec.Job.max_iterations = max_int then None
                 else Some spec.Job.max_iterations)
              ~should_stop ~original:w r)
  in
  result ~verified
    ~winner:("maxsat-" ^ Hyqsat.Optimize.algorithm_label r.Hyqsat.Optimize.algorithm_used)
    ~attempts:1 ~solve_time_s ~cost:r.Hyqsat.Optimize.best_cost
    ~lower_bound:r.Hyqsat.Optimize.lower_bound spec outcome ~queue_wait_s
    { (Portfolio.idle_stats outcome) with iterations = r.Hyqsat.Optimize.cdcl_calls }

let process_decision stop ?warm ~members ~obs ~parent (spec : Job.spec) ~enqueued_at () =
  let traced = not (Obs.Ctx.is_null obs) in
  let started = Unix.gettimeofday () in
  let queue_wait_s = started -. enqueued_at in
  let warm_import =
    match warm with Some w -> Warm.lookup w spec.Job.formula | None -> []
  in
  (* bounded retry with reseeding: an attempt that ends Unknown (step budget
     exhausted, or an incomplete member giving up) is retried with fresh
     seeds while attempts remain and the job's stop switch (deadline,
     drain, SIGTERM) hasn't fired *)
  let rec attempt k ~import =
    (* built before the span opens: a raising closure leaves no span open *)
    let members = members ~spec ~seed:(Job.attempt_seed spec k) in
    let aspan =
      if traced then
        Obs.Span.start obs ~parent
          ~attrs:[ ("attempt", string_of_int k) ]
          "attempt"
      else Obs.Span.none
    in
    let race =
      Portfolio.race ~should_stop:stop.should_stop ~max_iterations:spec.Job.max_iterations
        ~obs ~parent:aspan ~import members spec.Job.formula
    in
    Obs.Span.stop aspan;
    match race.Portfolio.winner with
    | Some _ -> (race, k + 1)
    | None ->
        if k < spec.Job.retries && not (stop.should_stop ()) then
          (* the retry reseeds but keeps what the failed attempt learnt:
             same formula, so the clauses are sound implicates *)
          attempt (k + 1) ~import:(Portfolio.race_learnts race)
        else (race, k + 1)
  in
  let race, attempts = attempt 0 ~import:warm_import in
  (match warm with
  | Some w -> Warm.store w spec.Job.formula (Portfolio.race_learnts race)
  | None -> ());
  let solve_time_s = Unix.gettimeofday () -. started in
  let outcome =
    match race.Portfolio.winner with
    | Some w -> (
        match w.Portfolio.stats.Portfolio.result with
        | Cdcl.Solver.Sat m ->
            (* report models in the caller's variable space, not the 3-SAT
               converted one (the aux chain variables are an artifact) *)
            Job.Sat (project_model ~original:(Job.original_formula spec) m)
        | Cdcl.Solver.Unsat -> Job.Unsat
        | Cdcl.Solver.Unknown _ -> assert false (* winners are decisive *))
    | None -> Job.Unknown (stop.reason ())
  in
  let outcome, verified = certify_outcome stop spec race outcome in
  let winner, stats =
    match race.Portfolio.winner with
    | Some w -> (w.Portfolio.member, w.Portfolio.stats)
    | None ->
        ("", { (Portfolio.idle_stats outcome) with iterations = max_member_iterations race })
  in
  let r =
    result ~verified ~winner ~attempts ~solve_time_s ~warm_start:(warm_import <> []) ~race spec
      outcome ~queue_wait_s stats
  in
  (* a race nobody won may have lost a member to an exception: report the
     first one rather than a silent unknown *)
  match race.Portfolio.winner with
  | Some _ -> r
  | None -> { r with error = List.find_map (fun m -> m.Portfolio.error) race.Portfolio.members }

let process ?(cancel = fun () -> false) ?warm ?worker ?(attrs = []) ~members ~obs ~parent
    (spec : Job.spec) ~enqueued_at () =
  let traced = not (Obs.Ctx.is_null obs) in
  let span =
    if traced then
      let worker = Option.map (fun w -> ("worker", string_of_int w)) worker in
      let attrs =
        ("id", string_of_int spec.Job.id) :: ("name", spec.Job.name)
        :: (Option.to_list worker @ attrs)
      in
      Obs.Span.start obs ~parent ~attrs "job"
    else Obs.Span.none
  in
  let stop = stop_switch ~cancel spec in
  let r =
    try
      match spec.Job.wcnf with
      | Some w -> process_opt stop ~obs ~parent:span spec w ~enqueued_at ()
      | None -> process_decision stop ?warm ~members ~obs ~parent:span spec ~enqueued_at ()
    with e ->
      (* a raising job (its members closure, a solver fault) still answers,
         so its batch or connection keeps every other job's result *)
      {
        (unstarted spec (Job.Unknown Job.Budget)
           ~queue_wait_s:(Unix.gettimeofday () -. enqueued_at))
        with
        error = Some (Printexc.to_string e);
      }
  in
  if traced then begin
    let outcome = Job.outcome_label r.outcome in
    Obs.Span.add_attr span "outcome" outcome;
    Obs.Span.stop span;
    Obs.Metrics.incr obs (Obs.Metrics.labelled "jobs_total" [ ("outcome", outcome) ])
  end;
  r

let run ?(workers = 1) ?(obs = Obs.Ctx.null) ?cancel ?(warm_start = false) ~members jobs =
  let workers = max 1 (min 64 workers) in (* same clamp as Parallel.Pool.create *)
  let warm = if warm_start then Some (Warm.create ()) else None in
  let traced = not (Obs.Ctx.is_null obs) in
  let batch_span =
    if traced then
      Obs.Span.start obs
        ~attrs:
          [
            ("jobs", string_of_int (List.length jobs));
            ("workers", string_of_int workers);
          ]
        "batch"
    else Obs.Span.none
  in
  let t0 = Unix.gettimeofday () in
  (* workers-1 spawned domains: the calling domain helps execute the batch
     through [Parallel.Pool.run], so exactly [workers] jobs are in flight
     and the helper's span worker id ([workers - 1]) stays inside
     [0, workers-1] *)
  let pool = Parallel.Pool.create ~workers:(workers - 1) in
  let results = Array.make (List.length jobs) None in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      let enqueued_at = Unix.gettimeofday () in
      Parallel.Pool.run pool
        (List.mapi
           (fun i spec ~worker ->
             results.(i) <-
               Some
                 (process ?cancel ?warm ~worker ~members ~obs ~parent:batch_span spec
                    ~enqueued_at ()))
           jobs));
  Obs.Span.stop batch_span;
  let wall_time_s = Unix.gettimeofday () -. t0 in
  let results = List.map Option.get (Array.to_list results) in
  let summary =
    Telemetry.summarize ~workers ~wall_time_s (List.map (fun r -> r.record) results)
  in
  (summary, results)
