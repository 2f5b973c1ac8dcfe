(* Batch-throughput benchmark for the service layer (no paper analogue):
   solve a uf50 batch through Service.Batch at increasing worker counts and
   report wall-clock, throughput and speedup over 1 worker, plus one
   portfolio race to show first-winner cancellation.

   On a W-core machine the batch speedup at `--jobs W` should exceed 2x for
   W >= 4; on fewer cores the scaling columns simply saturate. *)

let uf50_batch (ctx : Bench_util.ctx) count =
  let rng = Bench_util.rng_of ctx 87 in
  List.init count (fun i ->
      let f = Workload.Uniform.uf rng 50 in
      Service.Job.make ~name:(Printf.sprintf "uf50-%02d" i) ~seed:(ctx.seed + (101 * i)) ~id:i f)

let run (ctx : Bench_util.ctx) =
  Bench_util.header "Batch & portfolio service throughput"
    "no paper analogue; service-layer scaling on uf50 batches";
  (* small scale tracks --problems so CI can run a quick traced smoke
     (e.g. --problems 2 gives a 10-instance batch) *)
  let count =
    match ctx.scale with `Paper -> 40 | `Small -> min 20 (max 10 (5 * ctx.problems))
  in
  let jobs = uf50_batch ctx count in
  let obs =
    match ctx.trace with
    | None -> Obs.Ctx.null
    | Some path ->
        let o = Obs.Ctx.create () in
        Obs.Ctx.attach o (Obs.Export.file_jsonl path);
        Obs.Ctx.attach o (Obs.Export.console_tree Format.std_formatter);
        Printf.printf "tracing to %s\n" path;
        o
  in
  let cores = Domain.recommended_domain_count () in
  let worker_counts =
    List.sort_uniq compare [ 1; 2; min 4 cores; cores ] |> List.filter (fun w -> w >= 1)
  in
  Printf.printf "%d uf50 instances, %d core(s) recommended\n\n" count cores;
  Printf.printf "%8s %10s %12s %9s\n" "workers" "wall(s)" "jobs/s" "speedup";
  Bench_util.hr ();
  let base_wall = ref None in
  List.iter
    (fun workers ->
      let members = Service.Batch.solo "minisat" in
      let summary, _ = Service.Batch.run ~workers ~obs ~members jobs in
      let wall = summary.Service.Telemetry.wall_time_s in
      if !base_wall = None then base_wall := Some wall;
      let speedup = match !base_wall with Some b when wall > 0. -> b /. wall | _ -> 1. in
      Printf.printf "%8d %10.3f %12.1f %8.2fx\n" workers wall
        summary.Service.Telemetry.throughput_jps speedup)
    worker_counts;
  Bench_util.hr ();
  (* one portfolio race, to exercise cancellation end to end *)
  let f = Workload.Uniform.uf (Bench_util.rng_of ctx 88) 50 in
  let members = Service.Portfolio.members_named ~grid:4 ~seed:ctx.seed [ "minisat"; "kissat"; "walksat" ] in
  let report = Service.Portfolio.race ~obs members f in
  let winner =
    match report.Service.Portfolio.winner with
    | Some w -> w.Service.Portfolio.member
    | None -> "(none)"
  in
  Printf.printf "\nportfolio race on one uf50: winner=%s wall=%.3f s\n" winner
    report.Service.Portfolio.wall_time_s;
  List.iter
    (fun (m : Service.Portfolio.member_report) ->
      Printf.printf "  %-10s %-8s %8d iters %s\n" m.Service.Portfolio.member
        (match m.Service.Portfolio.stats.Service.Portfolio.result with
        | Cdcl.Solver.Sat _ -> "sat"
        | Cdcl.Solver.Unsat -> "unsat"
        | Cdcl.Solver.Unknown _ -> "unknown")
        m.Service.Portfolio.stats.Service.Portfolio.iterations
        (if m.Service.Portfolio.cancelled then "(cancelled)" else ""))
    report.Service.Portfolio.members;
  (* fault-injection resilience smoke (CI runs this at --qa-fault-rate 0.3):
     certified hybrid jobs against a faulty supervised backend must still
     return only certified-correct answers — failed QA calls degrade the
     warm-up to pure CDCL, they never corrupt the answer *)
  if ctx.fault_rate > 0. then begin
    Printf.printf "\nfault-injection smoke: rate=%.2f, certified hybrid on uf30\n"
      ctx.fault_rate;
    let smoke_obs = if Obs.Ctx.is_null obs then Obs.Ctx.create () else obs in
    let rng = Bench_util.rng_of ctx 89 in
    let qa =
      {
        Service.Job.default_qa with
        Service.Job.faults =
          { Anneal.Backend.fail_rate = ctx.fault_rate; fault_seed = ctx.seed + 13 };
      }
    in
    let smoke_jobs =
      List.init
        (max 4 ctx.problems)
        (fun i ->
          let f = Workload.Uniform.uf rng 30 in
          Service.Job.make ~name:(Printf.sprintf "fault-uf30-%02d" i) ~certify:true ~qa
            ~seed:(ctx.seed + (211 * i)) ~id:i f)
    in
    let members = Service.Batch.solo ~log_proof:true "hybrid" in
    let summary, results = Service.Batch.run ~workers:2 ~obs:smoke_obs ~members smoke_jobs in
    let records = List.map (fun r -> r.Service.Batch.record) results in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 records in
    let failures = sum (fun r -> r.Service.Telemetry.qa_failures) in
    let degraded = sum (fun r -> r.Service.Telemetry.degraded) in
    let withheld =
      List.filter (fun r -> r.Service.Telemetry.outcome = "unknown:cert-failed") records
    in
    Printf.printf "  jobs %d: sat %d / unsat %d / unknown %d · qa_failures %d · degraded %d\n"
      summary.Service.Telemetry.jobs summary.Service.Telemetry.sat
      summary.Service.Telemetry.unsat summary.Service.Telemetry.unknown failures degraded;
    let fail msg =
      Printf.printf "FAULT SMOKE FAILED: %s\n%!" msg;
      exit 1
    in
    if withheld <> [] then
      fail (Printf.sprintf "%d answers failed certification under faults" (List.length withheld));
    if summary.Service.Telemetry.unknown > 0 then
      fail "faults turned decidable jobs into unknowns";
    if failures = 0 then fail "fault injector never fired (rate > 0)";
    (* the supervision counters must be visible in the Prometheus export
       (and hence in the JSONL trace, whose sinks see the same metrics) *)
    let prom = Obs.Export.prometheus_string (Obs.Ctx.snapshot smoke_obs) in
    let contains sub =
      let n = String.length prom and m = String.length sub in
      let rec go i = i + m <= n && (String.sub prom i m = sub || go (i + 1)) in
      go 0
    in
    List.iter
      (fun metric -> if not (contains metric) then fail (metric ^ " missing from metrics"))
      [ "qa_backend_calls_total"; "qa_failures_total"; "qa_degraded_total" ];
    Printf.printf "  ok: every answer certified; supervision counters exported\n";
    if Obs.Ctx.is_null obs then Obs.Ctx.close smoke_obs
  end;
  Obs.Ctx.close obs
