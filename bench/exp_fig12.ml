(* Figure 12: relationship between problem difficulty and speedup —
   (a) speedup vs the conflict proportion of the classical search,
   (b) speedup vs the classical solve time.  Paper: both positively
   correlated; benchmarks with low conflict proportion (II) gain < 1x. *)

module Hybrid = Hyqsat.Hybrid_solver

let run (ctx : Bench_util.ctx) =
  Bench_util.header "Figure 12 — difficulty vs speedup"
    "speedup grows with conflict proportion and with classical solve time";
  Printf.printf "%-5s %12s %14s %10s\n" "id" "conflict%" "classic(ms)" "reduction";
  Bench_util.hr ();
  let rows = ref [] in
  List.iter
    (fun spec ->
      let config = Exp_common.hybrid_config ctx.Bench_util.seed in
      let runs = Exp_common.reductions_for ctx spec ~config in
      let conflict_prop =
        Bench_util.mean
          (List.map
             (fun (c, _, _) ->
               Bench_util.ratio c.Hybrid.solver_stats.Cdcl.Solver.conflicts
                 c.Hybrid.iterations)
             runs)
      in
      let classic_ms =
        Bench_util.mean (List.map (fun (c, _, _) -> c.Hybrid.cdcl_time_s *. 1e3) runs)
      in
      let red = Bench_util.geomean (List.map (fun (_, _, r) -> r) runs) in
      rows := (conflict_prop, classic_ms, red) :: !rows;
      Printf.printf "%-5s %11.1f%% %14.3f %10.2f\n" spec.Workload.Spec.id
        (100. *. conflict_prop) classic_ms red)
    Workload.Spec.table1;
  let xs sel = Array.of_list (List.map sel !rows) in
  Bench_util.hr ();
  Printf.printf "correlation(conflict proportion, log reduction) = %+.2f\n"
    (Baselines.Descriptive.correlation
       (xs (fun (c, _, _) -> c))
       (xs (fun (_, _, r) -> log r)));
  Printf.printf "correlation(log classic time,   log reduction) = %+.2f\n"
    (Baselines.Descriptive.correlation
       (xs (fun (_, t, _) -> log (Float.max 1e-6 t)))
       (xs (fun (_, _, r) -> log r)))
