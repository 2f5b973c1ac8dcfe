(* Table II: end-to-end running time of MiniSAT-like and KisSAT-like CDCL on
   the host CPU vs HyQSAT on the (noisy) simulated D-Wave 2000Q, plus the
   iteration variance: the median over a row's instances of noisy QA
   iterations / noise-free iterations (a mean would follow the row's one
   longest search).
   Paper: speedups 1.48x-12.62x on most benchmarks, variance near 1. *)

module Hybrid = Hyqsat.Hybrid_solver

let run (ctx : Bench_util.ctx) =
  Bench_util.header
    "Table II — end-to-end time: CDCL on CPU vs HyQSAT on noisy simulated 2000Q"
    "HyQSAT wins 12/14 vs MiniSAT and 13/14 vs KisSAT (1.48x-12.62x); #iteration variance ~1";
  Printf.printf "%-5s %11s %11s %11s %11s %9s %9s %7s\n" "id" "minisat(ms)" "kissat(ms)"
    "hyqsat(ms)" "pipelnd(ms)" "spd(mini)" "spd(kis)" "it-var";
  Bench_util.hr ();
  let cap = Exp_common.iteration_cap ctx in
  List.iter
    (fun spec ->
      let fs = Exp_common.instances ctx spec in
      let mini_t = ref [] and kis_t = ref [] and hyq_t = ref [] and pipe_t = ref []
      and itvar = ref [] in
      List.iter
        (fun f ->
          let mini = Exp_common.solve_classic ~config:Cdcl.Config.minisat_like f in
          let kis = Exp_common.solve_classic ~config:Cdcl.Config.kissat_like f in
          let noisefree =
            Exp_common.solve_hybrid
              ~config:(Exp_common.hybrid_config ctx.Bench_util.seed)
              ~max_iterations:cap f
          in
          let noisy =
            Exp_common.solve_hybrid
              ~config:
                (Exp_common.hybrid_config ~noise:Anneal.Noise.default_2000q
                   ctx.Bench_util.seed)
              ~max_iterations:cap f
          in
          mini_t := mini.Hybrid.cdcl_time_s :: !mini_t;
          kis_t := kis.Hybrid.cdcl_time_s :: !kis_t;
          hyq_t := Hybrid.end_to_end_time_s noisy :: !hyq_t;
          pipe_t := Hybrid.end_to_end_pipelined_s noisy :: !pipe_t;
          itvar :=
            Bench_util.ratio noisy.Hybrid.iterations noisefree.Hybrid.iterations :: !itvar)
        fs;
      let mini = Bench_util.mean !mini_t *. 1e3 in
      let kis = Bench_util.mean !kis_t *. 1e3 in
      let hyq = Bench_util.mean !hyq_t *. 1e3 in
      let pipe = Bench_util.mean !pipe_t *. 1e3 in
      Printf.printf "%-5s %11.3f %11.3f %11.3f %11.3f %9.2f %9.2f %7.2f\n" spec.Workload.Spec.id
        mini kis hyq pipe (mini /. pipe) (kis /. pipe)
        (Bench_util.median !itvar))
    Workload.Spec.table1
