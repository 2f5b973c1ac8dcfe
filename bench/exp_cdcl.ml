(* CDCL core throughput: the arena solver (flat clause arena, packed
   blocker watch lists, allocation-free propagate) against the frozen
   pre-arena baseline [Cdcl.Reference] on uniform-random 3-SAT.

   Both engines run the same blocker-literal algorithm, so per instance
   they make bit-identical searches: before timing anything the bench
   asserts equal answers and equal [Solver.stats] and exits non-zero on
   any divergence.  The speedup column therefore isolates the clause-DB
   representation — same propagation count, different seconds.

   The absolute gate is a committed floor on the arena engine's
   propagations/sec (min over timing trials, summed across instances).
   The floor is set ~3x below the rate measured on a dev laptop so that
   slower CI machines pass with margin; the gate fires at floor/2 and
   exits 1 (a genuine representation regression shows up as an
   order-of-magnitude drop, not a 2x one). *)

let floor_props_per_sec = 1.2e6

(* instances that solve almost immediately measure harness overhead, not
   propagation throughput; skip them (selection is deterministic: it
   depends only on the conflict count, identical in both engines) *)
let min_conflicts = 200

type row = {
  name : string;
  vars : int;
  clauses : int;
  answer : string;
  conflicts : int;
  propagations : int;
  wall_arena : float;
  wall_reference : float;
}

let answer_kind = function
  | Cdcl.Solver.Sat _ -> "sat"
  | Cdcl.Solver.Unsat -> "unsat"
  | Cdcl.Solver.Unknown _ -> "unknown"

let run (ctx : Bench_util.ctx) =
  let trials, sizes =
    match ctx.Bench_util.scale with
    | `Paper -> (5, [ (150, 4); (250, 2) ])
    | `Small -> (3, [ (150, 2); (250, 1) ])
  in
  let max_conflicts = 20_000 in
  let config = Cdcl.Config.minisat_like in
  Bench_util.header "bench cdcl — arena CDCL core vs frozen pre-arena baseline"
    "flat clause arena + blocker watches: same search, fewer seconds";
  Printf.printf "%-10s %9s %8s %12s %12s %12s %8s\n" "instance" "conflicts"
    "answer" "arena pr/s" "ref pr/s" "confl/s" "speedup";
  Bench_util.hr ();
  let rows = ref [] in
  let salt = ref 0 in
  List.iter
    (fun (uf_n, count) ->
      for inst = 1 to count do
        (* advance through seeds until the instance is hard enough to time *)
        let rec pick () =
          incr salt;
          let f =
            Workload.Uniform.uf (Bench_util.rng_of ctx (900 + !salt)) uf_n
          in
          let s = Cdcl.Solver.create ~config f in
          let a = Cdcl.Solver.solve ~max_conflicts s in
          let st = Cdcl.Solver.stats s in
          if st.Cdcl.Solver.conflicts < min_conflicts then pick ()
          else (f, a, st)
        in
        let f, a_ans, a_st = pick () in
        let name = Printf.sprintf "uf%d-%d" uf_n inst in
        let run_arena () =
          let s = Cdcl.Solver.create ~config f in
          let a = Cdcl.Solver.solve ~max_conflicts s in
          (a, Cdcl.Solver.stats s)
        in
        let run_reference () =
          let r = Cdcl.Reference.create ~config f in
          let a = Cdcl.Reference.solve ~max_conflicts r in
          (a, Cdcl.Reference.stats r)
        in
        (* correctness first: identical answer and identical stats record,
           otherwise the timing comparison is meaningless *)
        let r_ans, r_st = run_reference () in
        if answer_kind a_ans <> answer_kind r_ans || a_st <> r_st then begin
          Printf.eprintf
            "bench cdcl: DIVERGENCE on %s — arena %s (%d conflicts, %d props) \
             vs reference %s (%d conflicts, %d props); engines must search \
             identically\n"
            name (answer_kind a_ans) a_st.Cdcl.Solver.conflicts
            a_st.Cdcl.Solver.propagations (answer_kind r_ans)
            r_st.Cdcl.Solver.conflicts r_st.Cdcl.Solver.propagations;
          exit 1
        end;
        (* timing: the checks above double as untimed warmup; min-of-trials
           (counts are deterministic, so min wall = peak rate) *)
        let time_min f =
          let best = ref infinity in
          for _ = 1 to trials do
            let _, dt = Bench_util.wall (fun () -> ignore (f ())) in
            if dt < !best then best := dt
          done;
          !best
        in
        let wall_arena = time_min run_arena in
        let wall_reference = time_min run_reference in
        let props = a_st.Cdcl.Solver.propagations in
        let confl = a_st.Cdcl.Solver.conflicts in
        Printf.printf "%-10s %9d %8s %12.3e %12.3e %12.3e %7.2fx\n" name confl
          (answer_kind a_ans)
          (float_of_int props /. wall_arena)
          (float_of_int props /. wall_reference)
          (float_of_int confl /. wall_arena)
          (wall_reference /. wall_arena);
        rows :=
          {
            name;
            vars = Sat.Cnf.num_vars f;
            clauses = Sat.Cnf.num_clauses f;
            answer = answer_kind a_ans;
            conflicts = confl;
            propagations = props;
            wall_arena;
            wall_reference;
          }
          :: !rows
      done)
    sizes;
  let rows = List.rev !rows in
  let total_props =
    List.fold_left (fun acc r -> acc + r.propagations) 0 rows
  in
  let total_confl = List.fold_left (fun acc r -> acc + r.conflicts) 0 rows in
  let sum_arena = List.fold_left (fun acc r -> acc +. r.wall_arena) 0. rows in
  let sum_ref =
    List.fold_left (fun acc r -> acc +. r.wall_reference) 0. rows
  in
  let arena_pps = float_of_int total_props /. sum_arena in
  let ref_pps = float_of_int total_props /. sum_ref in
  let speedup = sum_ref /. sum_arena in
  Bench_util.hr ();
  Printf.printf
    "aggregate: arena %.3e props/s (%.3e conflicts/s), reference %.3e props/s \
     — speedup %.2fx  [floor %.1e, gate at %.1e]\n"
    arena_pps
    (float_of_int total_confl /. sum_arena)
    ref_pps speedup floor_props_per_sec (floor_props_per_sec /. 2.);
  let num = Bench_util.num in
  let rate count wall = num (float_of_int count /. wall) in
  Bench_util.write_json ctx "cdcl"
    [
      ("max_conflicts", Int max_conflicts);
      ("trials", Int trials);
      ("floor_props_per_sec", num floor_props_per_sec);
      ( "instances",
        Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Str r.name);
                   ("vars", Int r.vars);
                   ("clauses", Int r.clauses);
                   ("answer", Str r.answer);
                   ("conflicts", Int r.conflicts);
                   ("propagations", Int r.propagations);
                   ("wall_arena_s", num r.wall_arena);
                   ("wall_reference_s", num r.wall_reference);
                   ("arena_props_per_sec", rate r.propagations r.wall_arena);
                   ("reference_props_per_sec", rate r.propagations r.wall_reference);
                   ("speedup", num (r.wall_reference /. r.wall_arena));
                 ])
             rows) );
      ( "aggregate",
        Obj
          [
            ("propagations", Int total_props);
            ("conflicts", Int total_confl);
            ("arena_props_per_sec", num arena_pps);
            ("reference_props_per_sec", num ref_pps);
            ("arena_conflicts_per_sec", rate total_confl sum_arena);
            ("speedup", num speedup);
          ] );
    ];
  if arena_pps < floor_props_per_sec /. 2. then begin
    Printf.eprintf
      "bench cdcl: PERF REGRESSION — arena propagation rate %.3e props/s is \
       below half the committed floor (%.3e); the flat-arena representation \
       has regressed\n"
      arena_pps floor_props_per_sec;
    exit 1
  end
