(* Weighted-MaxSAT benchmark (no paper analogue; the extension direction
   of the paper's reference [8], Bian et al.): the two exact algorithms
   (descending linear search, Fu–Malik core-guided) are first checked
   against brute-force enumeration on a fuzz corpus, then compared on
   structured weighted workloads, and the incremental WalkSAT incumbent
   is timed against its rescanning oracle on the same workloads.  Writes
   BENCH_maxsat.json at the repo root and fails (exit 1) if any exact
   answer misses the brute optimum, leaves the optimality gap open on a
   workload instance, or if the incumbent kernel and its oracle disagree. *)

module O = Hyqsat.Optimize

let random_clause r ~n ~k =
  let vars = Stats.Rng.sample_without_replacement r k n in
  Sat.Clause.make (List.map (fun v -> Sat.Lit.make v (Stats.Rng.bool r)) vars)

let random_wcnf r ~n ~hard ~soft =
  let clause () = random_clause r ~n ~k:(min 3 n) in
  Sat.Wcnf.make ~num_vars:n
    ~hard:(List.init hard (fun _ -> clause ()))
    ~soft:(List.init soft (fun _ -> (1 + Stats.Rng.int r 8, clause ())))

(* correctness sweep: both algorithms must close the gap at the brute
   optimum on every instance (or prove infeasibility when brute does) *)
let fuzz_gate rng ~instances =
  let mismatches = ref 0 in
  for i = 1 to instances do
    let n = 2 + Stats.Rng.int rng 9 in
    let w =
      random_wcnf rng ~n
        ~hard:(Stats.Rng.int rng (n + 1))
        ~soft:(1 + Stats.Rng.int rng (2 * n))
    in
    let check algorithm =
      let r = O.solve ~algorithm w in
      let ok =
        match Oracle.Brute.min_cost w with
        | None -> r.O.status = O.Infeasible
        | Some (opt, _) -> (
            r.O.status = O.Optimal && r.O.best_cost = opt && r.O.lower_bound = opt
            &&
            match r.O.best with
            | None -> false
            | Some x -> Sat.Wcnf.hard_satisfied w x && Sat.Wcnf.cost w x = opt)
      in
      if not ok then begin
        incr mismatches;
        Printf.eprintf "bench maxsat: instance %d diverges from brute force (%s)\n" i
          (O.algorithm_label algorithm)
      end
    in
    check O.Linear;
    check O.Core_guided
  done;
  !mismatches

type workload_row = {
  name : string;
  vars : int;
  n_hard : int;
  n_soft : int;
  optimum : int;
  linear_wall : float;
  linear_calls : int;
  core_wall : float;
  core_calls : int;
}

let run_workload name w =
  let time algorithm =
    Bench_util.wall (fun () -> O.solve ~algorithm w)
  in
  let lin, lin_wall = time O.Linear in
  let cg, cg_wall = time O.Core_guided in
  let ok =
    lin.O.status = O.Optimal && cg.O.status = O.Optimal
    && lin.O.best_cost = cg.O.best_cost
  in
  if not ok then begin
    Printf.eprintf
      "bench maxsat: REGRESSION on %s — linear (%s, cost %d/lb %d) vs core-guided (%s, cost %d/lb %d)\n"
      name
      (match lin.O.status with O.Optimal -> "optimal" | _ -> "open")
      lin.O.best_cost lin.O.lower_bound
      (match cg.O.status with O.Optimal -> "optimal" | _ -> "open")
      cg.O.best_cost cg.O.lower_bound;
    exit 1
  end;
  {
    name;
    vars = Sat.Wcnf.num_vars w;
    n_hard = Sat.Wcnf.num_hard w;
    n_soft = Sat.Wcnf.num_soft w;
    optimum = lin.O.best_cost;
    linear_wall = lin_wall;
    linear_calls = lin.O.cdcl_calls;
    core_wall = cg_wall;
    core_calls = cg.O.cdcl_calls;
  }

type incumbent_row = {
  i_name : string;
  flips : int;
  cost : int;
  kernel_ms : float;
  oracle_ms : float;
  equal : bool;  (* same (cost, model) from the kernel and the oracle *)
}

(* the default 20k-flip incumbent, kernel vs rescanning oracle from one
   seed; [should_stop] is polled once per flip, so counting its polls
   counts the flips *)
let incumbent_row ctx name w =
  let polls = ref 0 in
  let should_stop () =
    incr polls;
    false
  in
  let (k_cost, k_model), k_wall =
    Bench_util.wall (fun () -> O.incumbent ~should_stop (Bench_util.rng_of ctx 95) w)
  in
  let flips = !polls in
  let oracle, o_wall =
    Bench_util.wall (fun () -> Oracle.Local_search.incumbent (Bench_util.rng_of ctx 95) w)
  in
  {
    i_name = name;
    flips;
    cost = k_cost;
    kernel_ms = 1000. *. k_wall;
    oracle_ms = 1000. *. o_wall;
    equal = oracle = (k_cost, k_model);
  }

let flips_per_s r ms = float_of_int r.flips /. Float.max 1e-9 (ms /. 1000.)

let run (ctx : Bench_util.ctx) =
  Bench_util.header "Weighted MaxSAT: exact optimisers vs brute force and each other"
    "no paper analogue; extension of reference [8] (Bian et al.)";
  let rng = Bench_util.rng_of ctx 91 in
  let instances = match ctx.scale with `Paper -> 400 | `Small -> 120 in
  let mismatches = fuzz_gate rng ~instances in
  Printf.printf "fuzz corpus: %d instances x 2 algorithms, %d mismatches vs brute force\n\n"
    instances mismatches;

  (* one rng per workload: rows stay stable when a sibling changes *)
  let gc_nodes, bp = match ctx.scale with `Paper -> (36, (4, 4)) | `Small -> (18, (4, 3)) in
  let workloads =
    [
      ( Printf.sprintf "gc-weighted-%d" gc_nodes,
        Workload.Graph_coloring.weighted (Bench_util.rng_of ctx 92) ~nodes:gc_nodes
          ~edges:(int_of_float (2.394 *. float_of_int gc_nodes))
          ~soft_edges:(max 3 (gc_nodes / 3)) );
      (let blocks, steps = bp in
       ( Printf.sprintf "bp-weighted-%db%ds" blocks steps,
         Workload.Block_planning.generate_weighted (Bench_util.rng_of ctx 93) ~blocks ~steps
       ));
      ("uf-weighted-16", random_wcnf (Bench_util.rng_of ctx 94) ~n:16 ~hard:35 ~soft:56);
    ]
  in
  let rows = List.map (fun (name, w) -> run_workload name w) workloads in
  Printf.printf "%-20s %6s %6s %6s %8s %12s %8s %12s %8s\n" "workload" "vars" "hard"
    "soft" "optimum" "lin wall(s)" "calls" "cg wall(s)" "calls";
  Bench_util.hr ();
  List.iter
    (fun r ->
      Printf.printf "%-20s %6d %6d %6d %8d %12.4f %8d %12.4f %8d\n" r.name r.vars r.n_hard
        r.n_soft r.optimum r.linear_wall r.linear_calls r.core_wall r.core_calls)
    rows;
  Bench_util.hr ();
  Printf.printf "both algorithms certified the same optimum on all %d workloads\n\n"
    (List.length rows);

  let incumbents = List.map (fun (name, w) -> incumbent_row ctx name w) workloads in
  Printf.printf "%-20s %8s %14s %12s %12s %14s %6s\n" "incumbent" "flips" "penalised cost"
    "kernel(ms)" "oracle(ms)" "kernel flips/s" "equal";
  Bench_util.hr ();
  List.iter
    (fun r ->
      Printf.printf "%-20s %8d %14d %12.3f %12.3f %14.0f %6b\n" r.i_name r.flips r.cost
        r.kernel_ms r.oracle_ms (flips_per_s r r.kernel_ms) r.equal)
    incumbents;
  Bench_util.hr ();
  print_newline ();

  Bench_util.write_json ctx "maxsat"
    [
      ("fuzz_instances", Int instances);
      ("fuzz_mismatches", Int mismatches);
      ( "workloads",
        Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Str r.name);
                   ("vars", Int r.vars);
                   ("hard", Int r.n_hard);
                   ("soft", Int r.n_soft);
                   ("optimum", Int r.optimum);
                   ("linear_wall_s", Bench_util.num r.linear_wall);
                   ("linear_cdcl_calls", Int r.linear_calls);
                   ("core_wall_s", Bench_util.num r.core_wall);
                   ("core_cdcl_calls", Int r.core_calls);
                 ])
             rows) );
      ( "incumbent",
        Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Str r.i_name);
                   ("flips", Int r.flips);
                   ("penalised_cost", Int r.cost);
                   ("kernel_ms", Bench_util.num r.kernel_ms);
                   ("oracle_ms", Bench_util.num r.oracle_ms);
                   ("kernel_flips_per_s", Bench_util.num (flips_per_s r r.kernel_ms));
                   ("oracle_flips_per_s", Bench_util.num (flips_per_s r r.oracle_ms));
                   ("equal", Bool r.equal);
                 ])
             incumbents) );
    ];

  (* the gate: an exact optimiser that misses the brute optimum is a
     soundness regression, never a perf artifact *)
  (match List.filter (fun r -> not r.equal) incumbents with
  | [] -> ()
  | bad ->
      List.iter
        (fun r ->
          Printf.eprintf "bench maxsat: REGRESSION — incumbent kernel != oracle on %s\n" r.i_name)
        bad;
      exit 1);
  if mismatches > 0 then begin
    Printf.eprintf "bench maxsat: REGRESSION — %d fuzz mismatches vs brute force\n"
      mismatches;
    exit 1
  end
