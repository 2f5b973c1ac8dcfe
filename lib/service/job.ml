type qa_policy = {
  faults : Anneal.Backend.fault_profile;
  supervision : Anneal.Supervisor.policy;
  reads : int;
  domains : int;
}

let default_qa =
  {
    faults = Anneal.Backend.default_faults;
    supervision = Anneal.Supervisor.default_policy;
    reads = 1;
    domains = 1;
  }

type spec = {
  id : int;
  name : string;
  formula : Sat.Cnf.t;
  original : Sat.Cnf.t option;
  wcnf : Sat.Wcnf.t option;
  gap_limit : int;
  certify : bool;
  timeout_s : float option;
  max_iterations : int;
  retries : int;
  qa : qa_policy;
  seed : int;
}

let default_seed ~id =
  (* per-job base seeds must not collide *across jobs* once attempt
     reseeding (+7919·k) is applied: a shared constant made job i attempt
     k+1 equal job j attempt k.  1_000_003 is prime and not a multiple of
     7919, so two jobs' attempt sequences only meet when their ids differ
     by a multiple of 7919 — beyond any realistic retry count. *)
  20230225 + (1_000_003 * id)

let make ?name ?original ?wcnf ?(gap_limit = 0) ?(certify = false) ?timeout_s
    ?(max_iterations = max_int) ?(retries = 0) ?(qa = default_qa) ?seed ~id formula =
  let seed = match seed with Some s -> s | None -> default_seed ~id in
  let name = match name with Some n -> n | None -> Printf.sprintf "job-%d" id in
  if retries < 0 then invalid_arg "Job.make: retries < 0";
  if gap_limit < 0 then invalid_arg "Job.make: gap_limit < 0";
  (match original with
  | Some g when Sat.Cnf.num_vars g > Sat.Cnf.num_vars formula ->
      invalid_arg "Job.make: original has more variables than the formula solved"
  | _ -> ());
  (* the one place a decision job's input becomes 3-SAT: the solvers run on
     the conversion, answers are projected back to and certified against
     the input *)
  let formula, original =
    match (original, wcnf) with
    | None, None when not (Sat.Cnf.is_3sat formula) ->
        (fst (Sat.Three_sat.convert formula), Some formula)
    | _ -> (formula, original)
  in
  {
    id;
    name;
    formula;
    original;
    wcnf;
    gap_limit;
    certify;
    timeout_s;
    max_iterations;
    retries;
    qa;
    seed;
  }

let optimize ?name ?gap_limit ?certify ?timeout_s ?max_iterations ?retries ?qa ?seed ~id w =
  make ?name ~wcnf:w ?gap_limit ?certify ?timeout_s ?max_iterations ?retries ?qa ?seed ~id
    (Sat.Wcnf.hard_cnf w)

let original_formula spec = match spec.original with Some g -> g | None -> spec.formula

(* 7919 is the 1000th prime: attempt seeds stay far apart without colliding
   with the +1/+2 seed conventions used elsewhere in the suite *)
let attempt_seed spec k = spec.seed + (7919 * k)

type unknown_reason = Sat.Answer.reason =
  | Timeout
  | Budget
  | Cancelled
  | Cert_failed

type outcome = Sat.Answer.t =
  | Sat of bool array
  | Unsat
  | Unknown of unknown_reason

let outcome_label = Sat.Answer.label
