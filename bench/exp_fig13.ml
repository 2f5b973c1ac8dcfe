(* Figure 13: embedding efficiency of the HyQSAT scheme vs the
   Minorminer-like and place-and-route baselines — (a) embedding time,
   (b) success rate, (c) average chain length, as functions of the number of
   embedded clauses.  Paper: HyQSAT is ~1e5-1e6x faster, capacity ~170
   clauses vs 180 (Minorminer) and 120 (P&R), chains ~1.59x longer. *)

let queue_for (ctx : Bench_util.ctx) salt k_clauses =
  let rng = Bench_util.rng_of ctx (1300 + salt) in
  let f = Workload.Uniform.uf rng 200 in
  let queue =
    Hyqsat.Clause_queue.generate rng f ~activity:(fun _ -> 1.0) ~limit:k_clauses
      ~var_budget:64
  in
  List.filteri (fun i _ -> i < k_clauses) (List.map (Sat.Cnf.clause f) queue)

let run (ctx : Bench_util.ctx) =
  let n_queues, sizes =
    match ctx.Bench_util.scale with
    | `Paper -> (20, [ 10; 20; 40; 60; 80; 120; 170; 250 ])
    | `Small -> (5, [ 5; 10; 20; 40; 60 ])
  in
  Bench_util.header "Figure 13 — embedding time / success rate / chain length"
    "HyQSAT ~1e5-1e6x faster; capacities ~170 (HyQSAT) / 180 (Minorminer) / 120 (P&R); chains ~1.59x longer";
  Printf.printf "%-9s | %-25s | %-25s | %-25s\n" "" "hyqsat" "minorminer-like" "place&route";
  Printf.printf "%-9s | %8s %7s %7s | %8s %7s %7s | %8s %7s %7s\n" "#clauses" "time" "succ%"
    "chain" "time" "succ%" "chain" "time" "succ%" "chain";
  Bench_util.hr ();
  let graph = Chimera.Graph.standard_2000q () in
  List.iter
    (fun k ->
      let hy_t = ref [] and hy_s = ref 0 and hy_c = ref [] in
      let mm_t = ref [] and mm_s = ref 0 and mm_c = ref [] in
      let pr_t = ref [] and pr_s = ref 0 and pr_c = ref [] in
      for q = 1 to n_queues do
        let clauses = queue_for ctx ((k * 100) + q) k in
        if List.length clauses >= k then begin
          let enc = Qubo.Encode.encode ~num_vars:200 clauses in
          let embed () =
            Embed.Hyqsat_scheme.embed graph enc.Qubo.Encode.clauses
              ~aux_of_clause:enc.Qubo.Encode.aux_of_clause
          in
          (* hyqsat: microsecond-scale, measured with bechamel *)
          let ns =
            Bench_util.bechamel_ns ~quota_s:0.1 (Printf.sprintf "hyqsat-embed-%d-%d" k q) embed
          in
          let res = embed () in
          hy_t := (ns /. 1e3) :: !hy_t;
          if res.Embed.Hyqsat_scheme.embedded_clauses >= k then begin
            incr hy_s;
            hy_c := Embed.Embedding.avg_chain_length res.Embed.Hyqsat_scheme.embedding :: !hy_c
          end;
          (* baselines work on the problem graph *)
          let obj = Qubo.Encode.objective enc in
          let nodes = Qubo.Pbq.vars obj and edges = Qubo.Pbq.edges obj in
          let mm, mm_time =
            Bench_util.wall (fun () ->
                Baselines.Minorminer_like.embed ~seed:q ~max_rounds:8 ~timeout_s:30. graph ~nodes
                  ~edges)
          in
          mm_t := (mm_time *. 1e6) :: !mm_t;
          (match mm.Baselines.Minorminer_like.embedding with
          | Some emb ->
              incr mm_s;
              mm_c := Embed.Embedding.avg_chain_length emb :: !mm_c
          | None -> ());
          let pr, pr_time =
            Bench_util.wall (fun () ->
                Baselines.Place_route.embed ~timeout_s:30. graph ~nodes ~edges)
          in
          pr_t := (pr_time *. 1e6) :: !pr_t;
          match pr with
          | Some emb ->
              incr pr_s;
              pr_c := Embed.Embedding.avg_chain_length emb :: !pr_c
          | None -> ()
        end
      done;
      let pct s = 100. *. float_of_int !s /. float_of_int n_queues in
      let mean_or l = if l = [] then Float.nan else Bench_util.mean l in
      Printf.printf
        "%9d | %7.1fus %6.0f%% %7.2f | %7.0fus %6.0f%% %7.2f | %7.0fus %6.0f%% %7.2f\n" k
        (mean_or !hy_t) (pct hy_s) (mean_or !hy_c) (mean_or !mm_t) (pct mm_s) (mean_or !mm_c)
        (mean_or !pr_t) (pct pr_s) (mean_or !pr_c))
    sizes
