(* The four workloads: instance pools generated from the run's seed, the
   oracle answer of every pool entry, and the answer gate every daemon
   reply passes through.  The program under test only ever receives the
   generated DIMACS / WDIMACS text. *)

type kind = Decision of Sat.Cnf.t | Maxsat of Sat.Wcnf.t

type job = {
  idx : int;  (** position in the pool *)
  name : string;
  text : string;  (** what goes on the wire *)
  format : string option;  (** [Some "wcnf"] for MaxSAT jobs *)
  seed : int;  (** the job's solver seed, fixed per pool entry *)
  kind : kind;  (** the generated instance, for the oracle and the gate *)
}

type t = {
  name : string;
  solver : string;  (** the daemon's [--solver] *)
  jobs : job array;
}

type oracle = Sat_expected | Unsat_expected | Optimum of int | Infeasible_expected

let names = [ "hybrid-sat"; "threshold-certified"; "wire-tiny"; "maxsat-weighted" ]

let decision_job rng idx name f =
  {
    idx;
    name;
    text = Sat.Dimacs.to_string f;
    format = None;
    seed = Stats.Rng.int rng 1_000_000;
    kind = Decision f;
  }

let maxsat_job rng idx name w =
  {
    idx;
    name;
    text = Sat.Wcnf.to_string w;
    format = Some "wcnf";
    seed = Stats.Rng.int rng 1_000_000;
    kind = Maxsat w;
  }

(* [size] sizes spread evenly over [lo, hi] in a scrambled order, so any
   prefix of the pool (and every seed's pool) has the same size mix *)
let stratified ~size ~lo ~hi idx = lo + ((idx * 37) mod size * (hi - lo + 1) / size)

let uniform rng ~planted ~lo ~hi ~ratio ~size idx =
  let n = stratified ~size ~lo ~hi idx in
  let m = int_of_float (Float.ceil (ratio *. float_of_int n)) in
  let f = Workload.Uniform.generate ~planted rng ~num_vars:n ~num_clauses:m in
  decision_job rng idx (Printf.sprintf "uf%d-%03d" n idx) f

let random_wcnf rng ~n ~hard ~soft =
  let clause () =
    let vars = Stats.Rng.sample_without_replacement rng 3 n in
    Sat.Clause.make (List.map (fun v -> Sat.Lit.make v (Stats.Rng.bool rng)) vars)
  in
  Sat.Wcnf.make ~num_vars:n
    ~hard:(List.init hard (fun _ -> clause ()))
    ~soft:(List.init soft (fun _ -> (1 + Stats.Rng.int rng 8, clause ())))

(* a weighted plan whose optimum moves something: when every "don't
   move" soft unit can hold, the job is trivial (cost 0, no CDCL call) *)
let rec moving_plan rng =
  let w = Workload.Block_planning.generate_weighted rng ~blocks:2 ~steps:4 in
  let idle = Sat.Cnf.append (Sat.Wcnf.hard_cnf w) (List.map snd (Sat.Wcnf.soft_clauses w)) in
  match Cdcl.Solver.solve (Cdcl.Solver.create idle) with
  | Sat.Answer.Sat _ -> moving_plan rng
  | Sat.Answer.Unsat | Sat.Answer.Unknown _ -> w

(* weighted colouring (half the pool), random WCNF and block planning *)
let maxsat_instance rng ~size idx =
  match idx mod 4 with
  | 0 | 1 ->
      let nodes = stratified ~size ~lo:8 ~hi:10 idx in
      let w =
        Workload.Graph_coloring.weighted rng ~nodes
          ~edges:(int_of_float (2.394 *. float_of_int nodes))
          ~soft_edges:nodes
      in
      maxsat_job rng idx (Printf.sprintf "gc-w%d-%03d" nodes idx) w
  | 2 ->
      let n = stratified ~size ~lo:10 ~hi:12 idx in
      let w = random_wcnf rng ~n ~hard:(2 * n) ~soft:(3 * n) in
      maxsat_job rng idx (Printf.sprintf "uf-w%d-%03d" n idx) w
  | _ ->
      maxsat_job rng idx (Printf.sprintf "bp-w2b4s-%03d" idx) (moving_plan rng)

(* the instance family, pool size and daemon solver of each workload
   ([count] generates only the pool's first entries) *)
let make ?count name ~seed =
  let salt =
    match List.find_index (String.equal name) names with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "unknown workload %S" name)
  in
  let rng = Stats.Rng.create ~seed:((seed * 7919) + (104_729 * (salt + 1))) in
  let solver, size, gen =
    match name with
    | "hybrid-sat" ->
        ("hybrid", 150, uniform rng ~planted:true ~lo:20 ~hi:44 ~ratio:4.3 ~size:150)
    | "threshold-certified" ->
        (* just past the threshold: mostly UNSAT, so DRAT checking dominates *)
        ("minisat", 400, uniform rng ~planted:false ~lo:90 ~hi:100 ~ratio:4.6 ~size:400)
    | "wire-tiny" ->
        ("minisat", 1000, uniform rng ~planted:false ~lo:20 ~hi:40 ~ratio:4.3 ~size:1000)
    | _ ->
        (* WCNF submits bypass the daemon's decision members entirely *)
        ("minisat", 150, maxsat_instance rng ~size:150)
  in
  { name; solver; jobs = Array.init (Option.value ~default:size count) gen }

(* the untimed warm-up job: the same for every seed, so set-up time
   does not depend on which instance a seed happens to put first *)
let warmup name = (make ~count:1 name ~seed:0).jobs.(0)

(* the exact algorithm the service's [Auto] choice does not pick, from a
   short WalkSAT seed and no annealer: an independent re-solve of every
   optimum *)
let maxsat_oracle w =
  let open Hyqsat.Optimize in
  let algorithm = if Sat.Wcnf.sum_weights w <= 256 then Core_guided else Linear in
  let r = solve ~algorithm ~max_flips:200 w in
  match r.status with
  | Optimal -> Optimum r.best_cost
  | Infeasible -> Infeasible_expected
  | Feasible | Unknown -> failwith "maxsat oracle did not close the gap"

let oracle job =
  match job.kind with
  | Decision f -> (
      match Cdcl.Reference.solve (Cdcl.Reference.create f) with
      | Sat.Answer.Sat _ -> Sat_expected
      | Sat.Answer.Unsat -> Unsat_expected
      | Sat.Answer.Unknown _ -> failwith "reference solver gave no answer")
  | Maxsat w -> maxsat_oracle w

(* an independent model check: no solver or certifier code involved *)
let satisfies clauses m =
  List.for_all
    (fun c ->
      List.exists
        (fun l ->
          let v = Sat.Lit.var l in
          v < Array.length m && m.(v) = Sat.Lit.is_pos l)
        (Sat.Clause.lits c))
    clauses

(* [Error why] for every reply a user could not trust *)
let gate job oracle (record : Service.Telemetry.record) model =
  let open Service.Telemetry in
  let expect cond why = if cond then Ok () else Error why in
  let ( let* ) = Result.bind in
  match (job.kind, record.outcome, model) with
  | Decision f, "sat", Some m ->
      let* () = expect (oracle = Sat_expected) "sat, but the reference solver says unsat" in
      let* () = expect (satisfies (Sat.Cnf.clauses f) m) "model falsifies a clause" in
      expect (record.verified = "model") ("not certified: " ^ record.verified)
  | Decision _, "unsat", _ ->
      let* () = expect (oracle = Unsat_expected) "unsat, but the reference solver says sat" in
      expect (record.verified = "proof") ("not certified: " ^ record.verified)
  | Maxsat w, "sat", Some m ->
      let cost = Sat.Wcnf.cost w m in
      let* () =
        expect (satisfies (Array.to_list w.Sat.Wcnf.hard) m) "model falsifies a hard clause"
      in
      let* () = expect (cost = record.cost) "reported cost differs from the model's" in
      let* () = expect (record.lower_bound = cost) "optimality gap left open" in
      let* () =
        expect (oracle = Optimum cost)
          (Printf.sprintf "cost %d, but the oracle optimum differs" cost)
      in
      expect (record.verified = "optimal") ("not certified: " ^ record.verified)
  | Maxsat _, "unsat", _ ->
      let* () = expect (oracle = Infeasible_expected) "infeasible, but the oracle has a model" in
      expect (record.verified = "infeasible") ("not certified: " ^ record.verified)
  | _, "sat", None -> Error "sat without a model"
  | _, outcome, _ -> Error outcome
