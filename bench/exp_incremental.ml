(* Incremental-solving benchmark (no paper analogue): a correlated query
   stream — one formula, many assumption sets — solved warm through a
   retained solver versus cold with a fresh solver per query.  Writes
   BENCH_incremental.json at the repo root and fails (exit 1) if the
   warm path does not at least match the cold path, either in wall
   clock (median of trials) or in total conflicts (deterministic). *)

module Solver = Cdcl.Solver

let queries_of rng ~n ~count ~k =
  List.init count (fun _ ->
      let vars = Stats.Rng.sample_without_replacement rng k n in
      List.map (fun v -> Sat.Lit.make v (Stats.Rng.bool rng)) vars)

(* answers must be pointwise certified-equivalent between the paths:
   sat-ness under the assumptions is semantic, so any divergence is a
   soundness bug, not a perf artifact *)
let satness = function
  | `Sat _ -> "sat"
  | `Unsat | `Unsat_assumptions -> "unsat-under-assumptions"
  | `Unknown -> "unknown"

let run_cold f queries =
  List.map
    (fun a ->
      let s = Solver.create f in
      let answer = satness (Solver.solve_with_assumptions s a) in
      (answer, (Solver.stats s).Solver.conflicts))
    queries

let run_warm f queries =
  let s = Solver.create f in
  let before = ref 0 in
  List.map
    (fun a ->
      let answer = satness (Solver.solve_with_assumptions s a) in
      let total = (Solver.stats s).Solver.conflicts in
      let delta = total - !before in
      before := total;
      (answer, delta))
    queries

let run (ctx : Bench_util.ctx) =
  Bench_util.header "Incremental solving: warm session vs cold re-solves"
    "no paper analogue; assumption-query stream over one formula";
  (* the instance must be hard enough that a from-scratch solve has real
     cost to amortise: near-threshold uf150 runs hundreds of conflicts per
     cold query, which the retained clause database mostly eliminates *)
  let n, count, trials =
    match ctx.scale with `Paper -> (175, 60, 5) | `Small -> (150, 25, 3)
  in
  let k = 3 in
  let rng = Bench_util.rng_of ctx 77 in
  let f = Workload.Uniform.uf rng n in
  let m = Sat.Cnf.num_clauses f in
  let queries = queries_of rng ~n ~count ~k in
  Printf.printf "uf%d (%d clauses), %d queries x %d assumptions, %d timed trials\n\n" n m
    count k trials;

  (* answers and conflict counts are deterministic: check once *)
  let cold = run_cold f queries in
  let warm = run_warm f queries in
  List.iteri
    (fun i ((ca, _), (wa, _)) ->
      if ca <> wa then begin
        Printf.eprintf "bench incremental: query %d diverges (cold %s, warm %s)\n" i ca wa;
        exit 1
      end)
    (List.combine cold warm);
  let cold_conflicts = List.fold_left (fun acc (_, c) -> acc + c) 0 cold in
  let warm_conflicts = List.fold_left (fun acc (_, c) -> acc + c) 0 warm in

  let time path = snd (Bench_util.wall (fun () -> ignore (path f queries))) in
  let cold_wall = Bench_util.median (List.init trials (fun _ -> time run_cold)) in
  let warm_wall = Bench_util.median (List.init trials (fun _ -> time run_warm)) in
  let speedup = if warm_wall > 0. then cold_wall /. warm_wall else 1. in

  Printf.printf "%8s %12s %14s\n" "path" "wall(s)" "conflicts";
  Bench_util.hr ();
  Printf.printf "%8s %12.4f %14d\n" "cold" cold_wall cold_conflicts;
  Printf.printf "%8s %12.4f %14d\n" "warm" warm_wall warm_conflicts;
  Bench_util.hr ();
  Printf.printf "warm-start speedup: %.2fx wall, %.2fx conflicts (answers agree on all %d queries)\n\n"
    speedup
    (float_of_int cold_conflicts /. float_of_int (max 1 warm_conflicts))
    count;

  Bench_util.write_json ctx "incremental"
    [
      ("vars", Int n);
      ("clauses", Int m);
      ("queries", Int count);
      ("assumptions_per_query", Int k);
      ("trials", Int trials);
      ("cold_wall_s", Bench_util.num cold_wall);
      ("warm_wall_s", Bench_util.num warm_wall);
      ("cold_conflicts", Int cold_conflicts);
      ("warm_conflicts", Int warm_conflicts);
      ("warm_speedup", Bench_util.num speedup);
    ];

  (* the gate: retaining the session must never lose to starting over.
     Conflicts are deterministic; wall clock is a median, so a timing
     fluke on a loaded machine only fires together with a conflict tie *)
  if warm_conflicts > cold_conflicts then begin
    Printf.eprintf
      "bench incremental: REGRESSION — warm session spent %d conflicts vs %d cold\n"
      warm_conflicts cold_conflicts;
    exit 1
  end;
  if speedup < 1.0 && warm_conflicts = cold_conflicts then begin
    Printf.eprintf
      "bench incremental: REGRESSION — warm-start speedup %.2fx < 1.0x with no conflict \
       savings\n"
      speedup;
    exit 1
  end
