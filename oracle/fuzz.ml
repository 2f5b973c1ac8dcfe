type config = {
  instances : int;
  min_vars : int;
  max_vars : int;
  mixed_k : bool;
  max_iterations : int;
  grid : int;
  seed : int;
}

let default_config =
  {
    instances = 200;
    min_vars = 4;
    max_vars = 10;
    mixed_k = true;
    max_iterations = 200_000;
    grid = 4;
    seed = 20230225;
  }

type failure = {
  instance_seed : int;
  instance : Sat.Cnf.t;
  shrunk : Sat.Cnf.t;
  reason : string;
}

type outcome = { ran : int; failures : failure list }

(* ------------------------------------------------------------------ *)
(* instance generation *)

let random_clause rng ~num_vars ~k =
  let k = min k num_vars in
  let vars = Stats.Rng.sample_without_replacement rng k num_vars in
  Sat.Clause.make (List.map (fun v -> Sat.Lit.make v (Stats.Rng.bool rng)) vars)

let instance ~config ~seed =
  let rng = Stats.Rng.create ~seed in
  let n = config.min_vars + Stats.Rng.int rng (config.max_vars - config.min_vars + 1) in
  (* alternate the regime: low ratios are almost surely SAT, high ratios
     almost surely UNSAT — both answer paths get fuzzed *)
  let ratio = [| 3.0; 4.3; 6.0; 8.0 |].(Stats.Rng.int rng 4) in
  let m = max 1 (int_of_float (ceil (ratio *. float_of_int n))) in
  let base = Workload.Uniform.generate ~planted:false rng ~num_vars:n ~num_clauses:m in
  if not config.mixed_k then base
  else
    (* splice in a few longer clauses so the 3-SAT conversion path runs *)
    let extra = 1 + Stats.Rng.int rng (max 1 (m / 5)) in
    Sat.Cnf.append base
      (List.init extra (fun _ -> random_clause rng ~num_vars:n ~k:(4 + Stats.Rng.int rng 3)))

(* ------------------------------------------------------------------ *)
(* one differential round *)

(* one certified solve on the product path, the one the CLI and the daemon
   run: [Job.make] 3-SAT-converts a non-3-SAT formula, the solo member logs
   DRAT, and [Batch.process] projects and certifies the answer *)
let certified_solve ~config ~seed member f =
  let spec =
    Service.Job.make ~certify:true ~max_iterations:config.max_iterations ~seed ~id:0 f
  in
  Service.Batch.process
    ~members:(Service.Batch.solo ~grid:config.grid ~log_proof:true member)
    ~obs:Obs.Ctx.null ~parent:Obs.Span.none spec ~enqueued_at:(Unix.gettimeofday ()) ()

let check_instance ~config ~seed f =
  let expected = match Brute.solve f with Some _ -> "sat" | None -> "unsat" in
  let examine name (r : Service.Batch.job_result) =
    match r.Service.Batch.outcome with
    | Sat.Answer.Unknown Sat.Answer.Cert_failed ->
        Error
          (Printf.sprintf "%s's answer is uncertifiable (%s)" name
             r.Service.Batch.record.Service.Telemetry.verified)
    | Sat.Answer.Unknown _ ->
        (* budget exhaustion is not a soundness failure *)
        Ok ()
    | answer ->
        let got = Sat.Answer.label answer in
        if got = expected then Ok ()
        else Error (Printf.sprintf "%s answered %s, brute force says %s" name got expected)
  in
  (* the hybrid member runs with [seed + 1]; the minisat member adds 2 to
     its spec seed, so it runs with [seed + 2] *)
  match examine "hybrid" (certified_solve ~config ~seed:(seed + 1) "hybrid" f) with
  | Error _ as e -> e
  | Ok () -> examine "minisat" (certified_solve ~config ~seed "minisat" f)

(* ------------------------------------------------------------------ *)
(* shrinking *)

let remove_clause f i =
  let clauses = List.filteri (fun j _ -> j <> i) (Sat.Cnf.clauses f) in
  Sat.Cnf.make ~num_vars:(Sat.Cnf.num_vars f) clauses

let compact_vars f =
  let used = Array.make (max 1 (Sat.Cnf.num_vars f)) false in
  List.iter
    (fun c -> List.iter (fun v -> used.(v) <- true) (Sat.Clause.vars c))
    (Sat.Cnf.clauses f);
  let index = Array.make (Array.length used) (-1) in
  let next = ref 0 in
  Array.iteri
    (fun v u ->
      if u then begin
        index.(v) <- !next;
        incr next
      end)
    used;
  let rename c =
    Sat.Clause.make
      (List.map
         (fun l -> Sat.Lit.make index.(Sat.Lit.var l) (Sat.Lit.is_pos l))
         (Sat.Clause.lits c))
  in
  Sat.Cnf.make ~num_vars:(max 1 !next) (List.map rename (Sat.Cnf.clauses f))

let shrink ~still_fails f =
  (* greedy clause-deletion to a fixpoint; each candidate is re-validated,
     so the result still reproduces the failure *)
  let rec pass f i =
    if i >= Sat.Cnf.num_clauses f then f
    else
      let candidate = remove_clause f i in
      if still_fails candidate then pass candidate i else pass f (i + 1)
  in
  let reduced = pass f 0 in
  let compacted = compact_vars reduced in
  if still_fails compacted then compacted else reduced

let reproducer failure =
  Sat.Dimacs.to_string
    ~comments:
      [
        "hyqsat fuzz reproducer";
        Printf.sprintf "seed %d" failure.instance_seed;
        failure.reason;
      ]
    failure.shrunk

(* ------------------------------------------------------------------ *)

let run ?(progress = fun _ -> ()) config =
  let failures = ref [] in
  for round = 0 to config.instances - 1 do
    let seed = config.seed + (7919 * round) in
    let f = instance ~config ~seed in
    (match check_instance ~config ~seed f with
    | Ok () -> ()
    | Error reason ->
        let still_fails g =
          Sat.Cnf.num_clauses g > 0
          && match check_instance ~config ~seed g with Ok () -> false | Error _ -> true
        in
        let shrunk = shrink ~still_fails f in
        failures := { instance_seed = seed; instance = f; shrunk; reason } :: !failures);
    progress round
  done;
  { ran = config.instances; failures = List.rev !failures }
