(* Figure 10: ablation of the backend feedback strategies — iteration
   reduction with only strategy 1, only strategy 2, only strategy 4, and all
   enabled.  Paper: every strategy contributes; strategy 1 contributes least
   (zero-energy full embeddings are rare), strategy 4 dominates on the
   unsatisfiable CFA benchmark. *)

module Backend = Hyqsat.Backend

let variants =
  [
    ("s1 only", { Backend.s1 = true; s2 = false; s4 = false });
    ("s2 only", { Backend.s1 = false; s2 = true; s4 = false });
    ("s4 only", { Backend.s1 = false; s2 = false; s4 = true });
    ("all", Backend.all_enabled);
  ]

let s1_only = List.assoc "s1 only" variants

(* the per-benchmark rows run one problem fewer than the other tables *)
let row_ctx (ctx : Bench_util.ctx) =
  { ctx with Bench_util.problems = max 2 (ctx.Bench_util.problems - 1) }

(* the extra fully-embeddable row's geomean reduction: with every clause on
   the annealer, strategy 1 can finish the search outright (the regime the
   paper's BP row lives in), so this row needs the device to reach zero
   energy *)
let uf_s ?backend ctx strategies =
  let ctx = row_ctx ctx in
  Bench_util.geomean
    (List.init (ctx.Bench_util.problems + 2) (fun i ->
         let rng = Bench_util.rng_of ctx (1000 + i) in
         let f = Workload.Uniform.generate rng ~num_vars:20 ~num_clauses:42 in
         let classic = Exp_common.solve_classic f in
         let config = Exp_common.hybrid_config ~strategies ?backend ctx.Bench_util.seed in
         let hybrid = Exp_common.solve_hybrid ~config f in
         Exp_common.reduction classic hybrid))

let run (ctx : Bench_util.ctx) =
  Bench_util.header "Figure 10 — feedback-strategy ablation (iteration reduction vs classic)"
    "all strategies contribute; s1 smallest; s4 ~= all on the unsatisfiable CFA benchmark";
  let row = row_ctx ctx in
  Printf.printf "%-5s" "id";
  List.iter (fun (name, _) -> Printf.printf " %9s" name) variants;
  print_newline ();
  Bench_util.hr ();
  List.iter
    (fun spec ->
      Printf.printf "%-5s" spec.Workload.Spec.id;
      List.iter
        (fun (_, strategies) ->
          let config = Exp_common.hybrid_config ~strategies row.Bench_util.seed in
          let runs = Exp_common.reductions_for row spec ~config in
          Printf.printf " %9.2f" (Bench_util.geomean (List.map (fun (_, _, r) -> r) runs)))
        variants;
      print_newline ())
    Workload.Spec.table1;
  Printf.printf "%-5s" "UF-s";
  List.iter (fun (_, strategies) -> Printf.printf " %9.2f" (uf_s ctx strategies)) variants;
  print_newline ()
