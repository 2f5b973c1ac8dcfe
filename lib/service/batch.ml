type job_result = {
  spec : Job.spec;
  outcome : Job.outcome;
  record : Telemetry.record;
  race : Portfolio.race_report;
}

(* partially applying the name yields the [members ~spec ~seed] closure
   shape [run] expects, with the job's own QA policy picked up per spec *)
let solo ?grid ?log_proof ?supervisor ?embed_cache name ~spec ~seed =
  Portfolio.members_named ?grid ?log_proof ?supervisor ?embed_cache ~qa:spec.Job.qa ~seed
    [ name ]

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

(* why a job ends Unknown once its search or its certification stopped
   early: the cancel switch, else the deadline, else the budget ran out *)
let unknown_reason ~cancel deadline =
  if cancel () then Job.Cancelled
  else if Deadline.expired deadline then Job.Timeout
  else Job.Budget

(* certification hook shared by decision and optimisation jobs: [check]
   runs the checker, polling [should_stop] (the cancel switch or the job
   deadline).  A claim the checker rejects is withheld as
   [Unknown Cert_failed] rather than handed to the caller wrong; a check
   that was stopped certifies nothing, so the claim is withheld as
   [Unknown Cancelled] / [Unknown Timeout] instead.  [label] names the
   verdict in the record's [verified] field *)
let certified ~cancel ~deadline ~label outcome check =
  let stopped = ref false in
  let should_stop () =
    stopped := cancel () || Deadline.expired deadline;
    !stopped
  in
  let verdict = check ~should_stop in
  match verdict with
  | Ok _ -> (outcome, label verdict)
  | Error _ when !stopped -> (Job.Unknown (unknown_reason ~cancel deadline), label verdict)
  | Error _ -> (Job.Unknown Job.Cert_failed, label verdict)

(* decision jobs: the Sat model is checked against the original formula,
   the Unsat DRAT proof against the solved one.  [Job.outcome] and
   [Cdcl.Solver.result] are the same type ({!Sat.Answer.t}), so the
   outcome feeds the checker directly *)
let certify_outcome ~cancel ~deadline (spec : Job.spec) (race : Portfolio.race_report)
    outcome =
  if not spec.Job.certify then (outcome, "")
  else
    let original = Job.original_formula spec in
    let proof =
      match (outcome, race.Portfolio.winner) with
      | Job.Unsat, Some w -> w.Portfolio.stats.Portfolio.proof
      | _ -> None
    in
    certified ~cancel ~deadline ~label:Check.Certify.verdict_label outcome
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
let process_opt ?(cancel = fun () -> false) ~obs ~parent (spec : Job.spec) w ~enqueued_at
    () =
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
  let deadline = Job.deadline spec in
  let r =
    Hyqsat.Solve.optimize
      ?max_conflicts:
        (if spec.Job.max_iterations = max_int then None else Some spec.Job.max_iterations)
      ?timeout_s:spec.Job.timeout_s ~should_stop:cancel ~gap_limit:spec.Job.gap_limit
      ~seed:(Job.attempt_seed spec 0) w
  in
  Obs.Span.stop span;
  let solve_time_s = Unix.gettimeofday () -. started in
  let outcome =
    match (r.Hyqsat.Optimize.status, r.Hyqsat.Optimize.best) with
    | (Hyqsat.Optimize.Optimal | Hyqsat.Optimize.Feasible), Some m -> Job.Sat m
    | Hyqsat.Optimize.Infeasible, _ -> Job.Unsat
    | _ -> Job.Unknown (unknown_reason ~cancel deadline)
  in
  let outcome, verified =
    match outcome with
    | _ when not spec.Job.certify -> (outcome, "")
    | Job.Unknown _ -> (outcome, "") (* no claim, nothing to certify *)
    | Job.Sat _ | Job.Unsat ->
        (* certification re-solves stay inside the job's budget: the
           conflict cap, the cancel/drain switch and the job deadline all
           reach the fresh solvers through certify_opt — the expensive
           re-solves only happen for Optimal/Infeasible claims, which the
           search proved before the deadline, so there is budget left to
           check them *)
        certified ~cancel ~deadline ~label:Check.Certify.opt_verdict_label outcome
          (fun ~should_stop ->
            Check.Certify.certify_opt
              ?max_conflicts:
                (if spec.Job.max_iterations = max_int then None
                 else Some spec.Job.max_iterations)
              ~should_stop ~original:w r)
  in
  let record =
    {
      Telemetry.job_id = spec.Job.id;
      job_name = spec.Job.name;
      outcome = Job.outcome_label outcome;
      verified;
      winner = "maxsat-" ^ Hyqsat.Optimize.algorithm_label r.Hyqsat.Optimize.algorithm_used;
      attempts = 1;
      queue_wait_s;
      solve_time_s;
      iterations = r.Hyqsat.Optimize.cdcl_calls;
      qa_calls = 0;
      qa_failures = 0;
      degraded = 0;
      strategy_uses = Array.make 4 0;
      warm_start = false;
      reused_clauses = 0;
      cost = r.Hyqsat.Optimize.best_cost;
      lower_bound = r.Hyqsat.Optimize.lower_bound;
    }
  in
  let race = { Portfolio.winner = None; members = []; wall_time_s = solve_time_s } in
  { spec; outcome; record; race }

let process_decision ~cancel ?warm ~members ~obs ~parent (spec : Job.spec) ~enqueued_at
    () =
  let traced = not (Obs.Ctx.is_null obs) in
  let started = Unix.gettimeofday () in
  let queue_wait_s = started -. enqueued_at in
  let deadline = Job.deadline spec in
  let warm_import =
    match warm with Some w -> Warm.lookup w spec.Job.formula | None -> []
  in
  (* bounded retry with reseeding: an attempt that ends Unknown (step budget
     exhausted, or an incomplete member giving up) is retried with fresh
     seeds while attempts and wall-clock remain — and the external [cancel]
     switch (drain, SIGTERM) hasn't fired *)
  let rec attempt k ~import =
    let seed = Job.attempt_seed spec k in
    let aspan =
      if traced then
        Obs.Span.start obs ~parent
          ~attrs:[ ("attempt", string_of_int k) ]
          "attempt"
      else Obs.Span.none
    in
    let race =
      Portfolio.race ~deadline ~cancel ~max_iterations:spec.Job.max_iterations ~obs
        ~parent:aspan ~import (members ~spec ~seed) spec.Job.formula
    in
    Obs.Span.stop aspan;
    match race.Portfolio.winner with
    | Some _ -> (race, k + 1)
    | None ->
        if k < spec.Job.retries && not (Deadline.expired deadline) && not (cancel ()) then
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
    | None -> Job.Unknown (unknown_reason ~cancel deadline)
  in
  let outcome, verified = certify_outcome ~cancel ~deadline spec race outcome in
  let winner_name, iterations, qa_calls, qa_failures, degraded, strategy_uses, reused =
    match race.Portfolio.winner with
    | Some w ->
        ( w.Portfolio.member,
          w.Portfolio.stats.Portfolio.iterations,
          w.Portfolio.stats.Portfolio.qa_calls,
          w.Portfolio.stats.Portfolio.qa_failures,
          w.Portfolio.stats.Portfolio.qa_degraded,
          Array.copy w.Portfolio.stats.Portfolio.strategy_uses,
          w.Portfolio.stats.Portfolio.reused_clauses )
    | None -> ("", max_member_iterations race, 0, 0, 0, Array.make 4 0, 0)
  in
  let record =
    {
      Telemetry.job_id = spec.Job.id;
      job_name = spec.Job.name;
      outcome = Job.outcome_label outcome;
      verified;
      winner = winner_name;
      attempts;
      queue_wait_s;
      solve_time_s;
      iterations;
      qa_calls;
      qa_failures;
      degraded;
      strategy_uses;
      warm_start = warm_import <> [];
      reused_clauses = reused;
      cost = -1;
      lower_bound = -1;
    }
  in
  { spec; outcome; record; race }

let process ?(cancel = fun () -> false) ?warm ~members ~obs ~parent (spec : Job.spec)
    ~enqueued_at () =
  match spec.Job.wcnf with
  | Some w -> process_opt ~cancel ~obs ~parent spec w ~enqueued_at ()
  | None -> process_decision ~cancel ?warm ~members ~obs ~parent spec ~enqueued_at ()

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
  let pool =
    Parallel.Pool.create ~workers:(workers - 1) (fun ~worker (spec, enqueued_at) ->
        let jspan =
          if traced then
            Obs.Span.start obs ~parent:batch_span
              ~attrs:
                [
                  ("id", string_of_int spec.Job.id);
                  ("name", spec.Job.name);
                  ("worker", string_of_int worker);
                ]
              "job"
          else Obs.Span.none
        in
        let r = process ?cancel ?warm ~members ~obs ~parent:jspan spec ~enqueued_at () in
        if traced then begin
          Obs.Span.add_attr jspan "outcome" (Job.outcome_label r.outcome);
          Obs.Span.stop jspan;
          Obs.Metrics.incr obs
            (Obs.Metrics.labelled "jobs_total"
               [ ("outcome", Job.outcome_label r.outcome) ])
        end;
        r)
  in
  let results =
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () ->
        let now = Unix.gettimeofday () in
        Parallel.Pool.run pool (List.map (fun spec -> (spec, now)) jobs))
  in
  Obs.Span.stop batch_span;
  let wall_time_s = Unix.gettimeofday () -. t0 in
  let results =
    Array.to_list results
    |> List.map (function Ok r -> r | Error e -> raise e)
  in
  let summary =
    Telemetry.summarize ~workers ~wall_time_s (List.map (fun r -> r.record) results)
  in
  (summary, results)
