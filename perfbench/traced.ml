(* The per-layer pass.  It replays the daemon pass's jobs (same order,
   same seeds) in this process on one worker, twice: once exactly as the
   daemon solves them, for the untraced job time, and once through
   benchmark-built members that time each layer's public calls.  No span
   lives inside the program: every wall time here is the benchmark's own
   span around a public call, on the one monotonic clock.  The report's
   [*_time_s] stage fields are process CPU ([Sys.time]); they are only
   published under [.cpu_ms] names and never added to a wall span. *)

module Job = Service.Job
module Batch = Service.Batch
module Portfolio = Service.Portfolio
module HS = Hyqsat.Hybrid_solver
module P = Server.Protocol

type layers = {
  mutable jobs : int;
  mutable parse_s : float;
  mutable parse_bytes : int;
  mutable fe_hits : int;
  mutable fe_misses : int;
  mutable fe_cpu_s : float;
  mutable an_calls : int;
  mutable an_host_s : float;
  mutable an_model_us : float;
  mutable be_cpu_s : float;
  strategies : int array;
  mutable member_s : float;
  mutable cdcl_cpu_s : float;
  mutable conflicts : int;
  mutable propagations : int;
  mutable certify_s : float;
  mutable proof_steps : int;
  mutable certify_opt_s : float;
  mutable walksat_s : float;
  mutable anneal_inc_s : float;
  mutable exact_s : float;
  mutable opt_calls : int;
  mutable encode_s : float;
  mutable decode_s : float;
  mutable frame_bytes : int;
  mutable job_s : float;
  mutable covered_s : float;
}

let fresh () =
  {
    jobs = 0; parse_s = 0.; parse_bytes = 0; fe_hits = 0; fe_misses = 0; fe_cpu_s = 0.;
    an_calls = 0; an_host_s = 0.; an_model_us = 0.; be_cpu_s = 0.; strategies = Array.make 4 0;
    member_s = 0.; cdcl_cpu_s = 0.; conflicts = 0; propagations = 0; certify_s = 0.;
    proof_steps = 0; certify_opt_s = 0.; walksat_s = 0.; anneal_inc_s = 0.; exact_s = 0.;
    opt_calls = 0; encode_s = 0.; decode_s = 0.; frame_bytes = 0; job_s = 0.; covered_s = 0.;
  }

(* the daemon's admission step (Dispatch.submit): parse, 3-SAT-convert a
   non-3-SAT formula, build the job *)
let spec_of (job : Workloads.job) ~id ~certify =
  let name = job.Workloads.name and seed = job.Workloads.seed in
  match job.Workloads.format with
  | Some _ -> Job.optimize ~name ~certify ~seed ~id (Sat.Wcnf.parse_string job.Workloads.text)
  | None ->
      let f = Sat.Dimacs.parse_string job.Workloads.text in
      if Sat.Cnf.is_3sat f then Job.make ~name ~certify ~seed ~id f
      else Job.make ~name ~original:f ~certify ~seed ~id (fst (Sat.Three_sat.convert f))

let process ~members spec =
  Batch.process ~members ~obs:Obs.Ctx.null ~parent:Obs.Span.none spec
    ~enqueued_at:(Unix.gettimeofday ()) ()

(* The daemon's own per-job path (certification inside, stock members):
   the untraced job time the tracing overhead is measured against. *)
let untraced solver (reply : Served.reply) =
  snd
    (Common.time (fun () ->
         process
           ~members:(Batch.solo ~log_proof:true solver)
           (spec_of reply.Served.job ~id:reply.Served.id ~certify:true)))

let stats_of_report (r : HS.report) =
  {
    Portfolio.result = r.HS.result;
    iterations = r.HS.iterations;
    qa_calls = r.HS.qa_calls;
    qa_failures = r.HS.qa_failures;
    qa_degraded = r.HS.qa_degraded;
    strategy_uses = Array.copy r.HS.strategy_uses;
    reused_clauses = r.HS.reused_clauses;
    learnts = r.HS.learnts;
    proof = r.HS.proof;
  }

(* the stock annealer, with a span around every device call *)
let timed_backend l inner =
  Anneal.Backend.of_fn ~name:(Anneal.Backend.name inner)
    ~capabilities:(Anneal.Backend.capabilities inner) (fun ?obs rng req ->
      let r, dt = Common.time (fun () -> Anneal.Backend.sample ?obs inner rng req) in
      l.an_calls <- l.an_calls + 1;
      l.an_host_s <- l.an_host_s +. dt;
      (match r with
      | Ok resp -> l.an_model_us <- l.an_model_us +. resp.Anneal.Backend.time_us
      | Error _ -> ());
      r)

let note_report l (r : HS.report) ~member_s =
  l.member_s <- l.member_s +. member_s;
  l.fe_cpu_s <- l.fe_cpu_s +. r.HS.frontend_time_s;
  l.be_cpu_s <- l.be_cpu_s +. r.HS.backend_time_s;
  l.cdcl_cpu_s <- l.cdcl_cpu_s +. r.HS.cdcl_time_s;
  Array.iteri (fun i n -> l.strategies.(i) <- l.strategies.(i) + n) r.HS.strategy_uses;
  l.conflicts <- l.conflicts + r.HS.solver_stats.Cdcl.Solver.conflicts;
  l.propagations <- l.propagations + r.HS.solver_stats.Cdcl.Solver.propagations

(* Benchmark-built twins of Portfolio's "hybrid" and "minisat" members:
   same configs and seeds, plus the timing backend, a per-solve embedding
   cache the benchmark can read, and the full solve report.  The
   traced ≡ untraced check catches any drift from the stock members. *)
let member l solver ~spec:_ ~seed =
  let run mode ?embed_cache () ~obs ~parent ~should_stop ~max_iterations ~import f =
    let r, member_s =
      Common.time (fun () ->
          Hyqsat.Solve.run ?embed_cache ~max_iterations ~should_stop ~obs ~parent ~import mode f)
    in
    note_report l r ~member_s;
    stats_of_report r
  in
  match solver with
  | "hybrid" ->
      let base = HS.default_config and qa = Job.default_qa in
      let config =
        HS.make_config ~base ~graph:base.HS.graph
          ~cdcl:(Cdcl.Config.with_proof_logging base.HS.cdcl)
          ~qa_reads:qa.Job.reads ~qa_domains:qa.Job.domains
          ~backend:(timed_backend l Anneal.Backend.best_of)
          ~supervisor:qa.Job.supervision ~seed ()
      in
      let run ~obs ~parent ~should_stop ~max_iterations ~import f =
        let cache = Hyqsat.Frontend.create_cache base.HS.graph in
        let stats =
          run (Hyqsat.Solve.Hybrid config) ~embed_cache:cache () ~obs ~parent ~should_stop
            ~max_iterations ~import f
        in
        let hits, misses = Hyqsat.Frontend.cache_stats cache in
        l.fe_hits <- l.fe_hits + hits;
        l.fe_misses <- l.fe_misses + misses;
        stats
      in
      [ { Portfolio.name = "hybrid"; run } ]
  | "minisat" ->
      let config =
        Cdcl.Config.with_proof_logging (Cdcl.Config.with_seed (seed + 2) Cdcl.Config.minisat_like)
      in
      [ { Portfolio.name = "minisat"; run = run (Hyqsat.Solve.Classic config) () } ]
  | other -> invalid_arg ("no traced member for solver " ^ other)

(* the service's optimisation answer, rebuilt for certify_opt *)
let opt_result (r : Batch.job_result) =
  let open Hyqsat.Optimize in
  let record = r.Batch.record in
  let status, best =
    match r.Batch.outcome with
    | Job.Sat m ->
        let closed = record.Service.Telemetry.cost = record.lower_bound in
        ((if closed then Optimal else Feasible), Some m)
    | Job.Unsat -> (Infeasible, None)
    | Job.Unknown _ -> (Unknown, None)
  in
  {
    best;
    best_cost = record.cost;
    lower_bound = record.lower_bound;
    status;
    algorithm_used = Auto;
    cdcl_calls = record.iterations;
    cores = 0;
    cpu_time_s = 0.;
  }

let certify l spec (r : Batch.job_result) =
  match spec.Job.wcnf with
  | Some w ->
      let v, dt = Common.time (fun () -> Check.Certify.certify_opt ~original:w (opt_result r)) in
      l.certify_opt_s <- l.certify_opt_s +. dt;
      (dt, Result.map ignore v)
  | None ->
      let proof =
        match (r.Batch.outcome, r.Batch.race.Portfolio.winner) with
        | Job.Unsat, Some w -> w.Portfolio.stats.Portfolio.proof
        | _ -> None
      in
      let v, dt =
        Common.time (fun () ->
            Check.Certify.certify ~original:(Job.original_formula spec) ~solved:spec.Job.formula
              ?proof r.Batch.outcome)
      in
      l.certify_s <- l.certify_s +. dt;
      (match v with
      | Ok (Check.Certify.Proof_verified n) -> l.proof_steps <- l.proof_steps + n
      | _ -> ());
      (dt, Result.map ignore v)

(* the two heuristic incumbents Optimize seeds its exact search with, on
   the same rng stream Solve.optimize gives them *)
let time_incumbents l spec w =
  let rng = Stats.Rng.create ~seed:(Job.attempt_seed spec 0) in
  let _, ws = Common.time (fun () -> Hyqsat.Optimize.incumbent rng w) in
  let _, an =
    Common.time (fun () -> Hyqsat.Optimize.anneal_incumbent rng HS.default_config.HS.graph w)
  in
  l.walksat_s <- l.walksat_s +. ws;
  l.anneal_inc_s <- l.anneal_inc_s +. an;
  ws +. an

(* mean of [reps] timings of a sub-millisecond call *)
let time_small reps f =
  let _, dt =
    Common.time (fun () ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  dt /. float_of_int reps

let time_wire l (reply : Served.reply) =
  let submit = P.Submit (Served.spec_of reply.Served.job ~id:reply.Served.id) in
  let result =
    P.encode_server
      (P.Result { id = reply.Served.id; record = reply.Served.record; model = reply.Served.model })
  in
  l.encode_s <- l.encode_s +. time_small 20 (fun () -> Server.Codec.frame (P.encode_client submit));
  l.decode_s <- l.decode_s +. time_small 20 (fun () -> P.decode_server result);
  l.frame_bytes <-
    l.frame_bytes
    + String.length (Server.Codec.frame (P.encode_client submit))
    + String.length (Server.Codec.frame result)

(* One traced job.  Returns [Error why] when the traced answer differs
   from the daemon's or fails certification. *)
let traced_job l solver (reply : Served.reply) =
  let job = reply.Served.job in
  let member_before = l.member_s in
  let t0 = Common.now () in
  let spec, parse_s = Common.time (fun () -> spec_of job ~id:reply.Served.id ~certify:false) in
  let r, process_s = Common.time (fun () -> process ~members:(member l solver) spec) in
  let certify_s, verdict = certify l spec r in
  let job_s = Common.now () -. t0 in
  (* the benchmark spans directly under the job: parse, the solve (the
     member for decision jobs; for optimisation jobs the service runs
     Optimize itself, so the whole process call), certification *)
  let solve_s =
    match spec.Job.wcnf with
    | Some w ->
        let incumbents = time_incumbents l spec w in
        l.exact_s <- l.exact_s +. Float.max 0. (process_s -. incumbents);
        l.opt_calls <- l.opt_calls + r.Batch.record.Service.Telemetry.iterations;
        process_s
    | None -> l.member_s -. member_before
  in
  l.jobs <- l.jobs + 1;
  l.parse_s <- l.parse_s +. parse_s;
  l.parse_bytes <- l.parse_bytes + String.length job.Workloads.text;
  l.job_s <- l.job_s +. job_s;
  l.covered_s <- l.covered_s +. parse_s +. solve_s +. certify_s;
  time_wire l reply;
  let daemon = reply.Served.record and mine = r.Batch.record in
  match verdict with
  | Error why -> Error ("traced answer not certified: " ^ why)
  | Ok () ->
      if mine.Service.Telemetry.outcome <> daemon.Service.Telemetry.outcome then
        Error (Printf.sprintf "traced outcome %s, daemon %s" mine.outcome daemon.outcome)
      else if mine.iterations <> daemon.iterations then
        Error (Printf.sprintf "traced iterations %d, daemon %d" mine.iterations daemon.iterations)
      else Ok ()

let per_job l x = Common.ratio x (float_of_int l.jobs)

(* the per-layer metrics: per-job means, pooled ratios *)
let metrics l ~(daemon : Served.loop) ~workers ~untraced_s =
  let m = Common.metric in
  let replies = daemon.Served.replies in
  let rec_f f = List.map (fun (r : Served.reply) -> f r.Served.record) replies in
  let queue = rec_f (fun r -> r.Service.Telemetry.queue_wait_s) in
  let solve = rec_f (fun r -> r.Service.Telemetry.solve_time_s) in
  let overhead =
    List.map
      (fun (r : Served.reply) ->
        r.Served.latency_s -. r.Served.record.queue_wait_s -. r.Served.record.solve_time_s)
      replies
  in
  let fe_calls = l.fe_hits + l.fe_misses in
  let s i = float_of_int l.strategies.(i) in
  let ms x = 1e3 *. per_job l x and count x = per_job l (float_of_int x) in
  [
    m "sat.parse_ms" "ms" (ms l.parse_s);
    m "sat.parse_mb_per_s" "MB/s" (Common.ratio (float_of_int l.parse_bytes /. 1e6) l.parse_s);
    m "frontend.calls" "count" (count fe_calls);
    m "frontend.cpu_ms" "ms" (ms l.fe_cpu_s);
    m "frontend.embed_cache_hit_ratio" "ratio"
      (Common.ratio (float_of_int l.fe_hits) (float_of_int fe_calls));
    m "anneal.calls" "count" (count l.an_calls);
    m "anneal.host_ms" "ms" (ms l.an_host_s);
    m "anneal.model_us" "us" (per_job l l.an_model_us);
    m "anneal.useful_ratio" "ratio" (Common.ratio (s 0 +. s 1 +. s 3) (float_of_int l.an_calls));
    m "backend.cpu_ms" "ms" (ms l.be_cpu_s);
    m "backend.s1" "count" (count l.strategies.(0));
    m "backend.s2" "count" (count l.strategies.(1));
    m "backend.s3" "count" (count l.strategies.(2));
    m "backend.s4" "count" (count l.strategies.(3));
    m "cdcl.member_ms" "ms" (ms l.member_s);
    m "cdcl.cpu_ms" "ms" (ms l.cdcl_cpu_s);
    m "cdcl.conflicts" "count" (count l.conflicts);
    m "cdcl.propagations" "count" (count l.propagations);
    m "cdcl.props_per_s" "1/s" (Common.ratio (float_of_int l.propagations) l.cdcl_cpu_s);
    m "check.certify_ms" "ms" (ms l.certify_s);
    m "check.proof_steps" "count" (count l.proof_steps);
    m "check.certify_opt_ms" "ms" (ms l.certify_opt_s);
    m "optimize.walksat_incumbent_ms" "ms" (ms l.walksat_s);
    m "optimize.anneal_incumbent_ms" "ms" (ms l.anneal_inc_s);
    m "optimize.exact_ms" "ms" (ms l.exact_s);
    m "optimize.cdcl_calls" "count" (count l.opt_calls);
    m "service.queue_wait_ms" "ms" (1e3 *. Common.mean queue);
    m "service.solve_ms" "ms" (1e3 *. Common.mean solve);
    m "service.worker_busy_ratio" "ratio"
      (Common.ratio (Common.sum solve) (daemon.Served.wall_s *. float_of_int workers));
    m "server.overhead_ms" "ms" (1e3 *. Common.mean overhead);
    m "server.encode_us" "us" (1e6 *. per_job l l.encode_s);
    m "server.decode_us" "us" (1e6 *. per_job l l.decode_s);
    m "server.frame_bytes" "bytes" (count l.frame_bytes);
    m "unattributed_ms" "ms" (ms (l.job_s -. l.covered_s));
    m "trace_overhead_ratio" "ratio" (Common.ratio l.job_s (Common.sum untraced_s));
  ]

(* Replay the daemon pass's jobs in submission (wire-id) order, each
   solved once untraced and once traced, alternating which goes first so
   neither side always finds the caches warm. *)
let run solver ~(daemon : Served.loop) ~workers =
  let replies =
    List.sort (fun (a : Served.reply) b -> compare a.Served.id b.Served.id) daemon.Served.replies
  in
  let l = fresh () in
  let untraced_s = ref [] in
  let mismatches =
    List.filter_map
      (fun (r : Served.reply) ->
        let untraced () = untraced_s := untraced solver r :: !untraced_s in
        if r.Served.id mod 2 = 0 then untraced ();
        let verdict = traced_job l solver r in
        if r.Served.id mod 2 = 1 then untraced ();
        match verdict with
        | Ok () -> None
        | Error why -> Some (r.Served.id, r.Served.job.Workloads.name ^ ": " ^ why))
      replies
  in
  (metrics l ~daemon ~workers ~untraced_s:!untraced_s, mismatches)
