(* Figure 1: end-to-end time to solve one 3-SAT problem (128 vars, 150
   clauses) with (a) classic CDCL, (b) the all-clauses-on-QA approach with a
   Minorminer-style embedder and 60 noisy samples, (c) HyQSAT. *)

let run (ctx : Bench_util.ctx) =
  Bench_util.header "Figure 1 — end-to-end time, 128 vars / 150 clauses"
    "CDCL ~8000us; QA-only dominated by ~10-17s embedding + 8380us sampling; HyQSAT ~4000us with <16us embedding";
  let rng = Bench_util.rng_of ctx 1 in
  let f = Workload.Uniform.generate rng ~num_vars:128 ~num_clauses:150 in
  let timing = Anneal.Timing.d_wave_2000q in

  (* (a) classic CDCL *)
  let classic =
    Hyqsat.Solve.run (Hyqsat.Solve.Classic Cdcl.Config.minisat_like) f
  in
  Printf.printf "%-28s total %10.1f us   (CDCL %d iterations)\n" "classic CDCL (MiniSAT-like)"
    (classic.Hyqsat.Hybrid_solver.cdcl_time_s *. 1e6)
    classic.Hyqsat.Hybrid_solver.iterations;

  (* (b) embed the whole formula with the Minorminer-like baseline *)
  let enc = Qubo.Encode.encode ~num_vars:(Sat.Cnf.num_vars f) (Sat.Cnf.clauses f) in
  let obj = Qubo.Encode.objective enc in
  let nodes = Qubo.Pbq.vars obj and edges = Qubo.Pbq.edges obj in
  let graph = Chimera.Graph.standard_2000q () in
  let outcome, embed_time =
    Bench_util.wall (fun () ->
        Baselines.Minorminer_like.embed ~seed:ctx.Bench_util.seed ~max_rounds:8 ~timeout_s:60.
          graph ~nodes ~edges)
  in
  let qa_sampling_us = Anneal.Timing.multi_sample_us timing ~samples:60 in
  Printf.printf "%-28s total %10.1f us   (embed %.2f s %s + 60 samples %.0f us)\n"
    "QA only (Minorminer embed)"
    ((embed_time *. 1e6) +. qa_sampling_us)
    embed_time
    (match outcome.Baselines.Minorminer_like.embedding with
    | Some _ -> "ok"
    | None -> "FAILED")
    qa_sampling_us;

  (* (c) HyQSAT *)
  let hybrid =
    Hyqsat.Solve.run (Hyqsat.Solve.Hybrid Hyqsat.Hybrid_solver.noisy_config) f
  in
  let frontend_us = hybrid.Hyqsat.Hybrid_solver.frontend_time_s *. 1e6 in
  let per_call_embed_us =
    frontend_us /. float_of_int (max 1 hybrid.Hyqsat.Hybrid_solver.qa_calls)
  in
  Printf.printf
    "%-28s total %10.1f us   (embed %.1f us/call, QA %.0f us, CDCL %d iterations)\n" "HyQSAT"
    (Hyqsat.Hybrid_solver.end_to_end_time_s hybrid *. 1e6)
    per_call_embed_us hybrid.Hyqsat.Hybrid_solver.qa_time_us
    hybrid.Hyqsat.Hybrid_solver.iterations
