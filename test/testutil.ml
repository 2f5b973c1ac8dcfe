(* Shared helpers for the test suites. *)

let rng seed = Stats.Rng.create ~seed

(* random k-SAT clause over n vars, distinct variables *)
let random_clause r ~n ~k =
  let vars = Stats.Rng.sample_without_replacement r k n in
  Sat.Clause.make (List.map (fun v -> Sat.Lit.make v (Stats.Rng.bool r)) vars)

let random_cnf r ~n ~m ~k =
  Sat.Cnf.make ~num_vars:n (List.init m (fun _ -> random_clause r ~n ~k))

(* qcheck generator of small random 3-SAT formulas (n in [3,10], ratio ~4) *)
let small_cnf_gen =
  QCheck.Gen.(
    int_range 3 10 >>= fun n ->
    int_range 1 (4 * n) >>= fun m ->
    int_bound 1_000_000 >>= fun seed ->
    return
      (let r = rng (seed + (n * 31) + m) in
       random_cnf r ~n ~m ~k:(min 3 n)))

let small_cnf_arb =
  QCheck.make
    ~print:(fun f -> Format.asprintf "%a" Sat.Cnf.pp f)
    small_cnf_gen

(* the line embedder reads an encoding's clauses and auxiliary numbering *)
let embed_encoded g enc =
  Embed.Hyqsat_scheme.embed g enc.Qubo.Encode.clauses ~aux_of_clause:enc.Qubo.Encode.aux_of_clause

(* a Table I benchmark by id *)
let spec id = List.find (fun s -> s.Workload.Spec.id = id) Workload.Spec.table1

let qsuite name cells = (name, List.map QCheck_alcotest.to_alcotest cells)

let check_model f model =
  Sat.Assignment.satisfies model f
