(* Table I: iteration counts of classic CDCL vs HyQSAT (noise-free
   simulator) over the 14-benchmark suite, with avg/geomean/max/min
   reduction.  Paper: every benchmark improves; average reduction 14.11x,
   geomean 7.56x, with CFA peaking at 329x. *)

module Hybrid = Hyqsat.Hybrid_solver

type row = { spec : Workload.Spec.t; c_mean : float; h_mean : float; reds : float list }

let rows ?backend (ctx : Bench_util.ctx) =
  List.map
    (fun spec ->
      let config = Exp_common.hybrid_config ?backend ctx.Bench_util.seed in
      let runs = Exp_common.reductions_for ctx spec ~config in
      let mean_of f = Bench_util.mean (List.map (fun (c, h, _) -> float_of_int (f c h)) runs) in
      {
        spec;
        c_mean = mean_of (fun c _ -> c.Hybrid.iterations);
        h_mean = mean_of (fun _ h -> h.Hybrid.iterations);
        reds = List.map (fun (_, _, r) -> r) runs;
      })
    Workload.Spec.table1

(* the Average row's avg and geomean columns: the per-benchmark average and
   geomean reductions, each averaged over the benchmarks *)
let average rows =
  ( Bench_util.mean (List.map (fun r -> Bench_util.mean r.reds) rows),
    Bench_util.mean (List.map (fun r -> Bench_util.geomean r.reds) rows) )

let run (ctx : Bench_util.ctx) =
  Bench_util.header "Table I — iteration reduction (noise-free simulator)"
    "avg reduction 14.11x / geomean 7.56x over 14 benchmarks; biggest on conflict-heavy instances";
  Printf.printf "%-5s %-24s %9s %9s %7s %7s %7s %7s\n" "id" "benchmark" "CDCL#it" "HyQ#it"
    "avg" "geo" "max" "min";
  Bench_util.hr ();
  let rows =
    List.map
      (fun r ->
        Printf.printf "%-5s %-24s %9.0f %9.0f %7.2f %7.2f %7.2f %7.2f\n%!" r.spec.Workload.Spec.id
          r.spec.Workload.Spec.name r.c_mean r.h_mean (Bench_util.mean r.reds)
          (Bench_util.geomean r.reds) (Bench_util.fmax r.reds) (Bench_util.fmin r.reds);
        r)
      (rows ctx)
  in
  let avg, geo = average rows in
  Bench_util.hr ();
  Printf.printf "%-5s %-24s %9s %9s %7.2f %7.2f %7.2f %7.2f\n" "" "Average" "" "" avg geo
    (Bench_util.mean (List.map (fun r -> Bench_util.fmax r.reds) rows))
    (Bench_util.mean (List.map (fun r -> Bench_util.fmin r.reds) rows))
