(* The watched-literal DRAT checker (Sat.Drat) checked differentially
   against the counting checker it replaced (Oracle.Drat_rup): on the
   solver's own proofs of unplanted ratio-4.6 instances, on mutants of
   those proofs, and on random proofs, both must return the same result —
   the same Ok, or the same Error naming the same step.  Also: hostile
   literals come back as an Error, and a stopped check never certifies. *)

open Service

let ratio = 4.6

let instance seed ~n =
  Workload.Uniform.generate ~planted:false (Testutil.rng seed) ~num_vars:n
    ~num_clauses:(int_of_float (Float.ceil (ratio *. float_of_int n)))

let solve f =
  let config = Cdcl.Config.with_proof_logging Cdcl.Config.minisat_like in
  let s = Cdcl.Solver.create ~config f in
  let answer = Cdcl.Solver.solve s in
  match Cdcl.Solver.proof s with
  | Some proof -> (answer, proof)
  | None -> Alcotest.fail "proof logging produced no proof"

(* ---- mutants ---- *)

let indices p proof = List.concat (List.mapi (fun i s -> if p s then [ i ] else []) proof)

let pick r = function [] -> None | xs -> Some (List.nth xs (Stats.Rng.int r (List.length xs)))
let is_add = function Sat.Drat.Add _ -> true | Sat.Drat.Delete _ -> false

let drop_lemma r proof =
  Option.map (fun i -> List.filteri (fun j _ -> j <> i) proof) (pick r (indices is_add proof))

let negate_literal r proof =
  let nonempty_add = function Sat.Drat.Add (_ :: _) -> true | _ -> false in
  Option.map
    (fun i ->
      List.mapi
        (fun j s ->
          match s with
          | Sat.Drat.Add lits when j = i ->
              let k = Stats.Rng.int r (List.length lits) in
              Sat.Drat.Add (List.mapi (fun m l -> if m = k then Sat.Lit.negate l else l) lits)
          | s -> s)
        proof)
    (pick r (indices nonempty_add proof))

let last_delete_first proof =
  match List.rev (indices (fun s -> not (is_add s)) proof) with
  | [] -> None
  | i :: _ -> Some (List.nth proof i :: List.filteri (fun j _ -> j <> i) proof)

(* [Delete [u]] inserted just before the first [Add []] *)
let delete_unit_before_empty u proof =
  let rec go = function
    | [] -> None
    | (Sat.Drat.Add [] as s) :: rest -> Some (Sat.Drat.Delete [ u ] :: s :: rest)
    | s :: rest -> Option.map (fun rest -> s :: rest) (go rest)
  in
  go proof

(* every proof one seed yields: the solver's proof of a ratio-4.6
   instance and its mutants, then the proof of the same instance with a
   unit clause [u] added, and that proof with [u] deleted before the
   empty clause *)
let cases seed ~n =
  let r = Testutil.rng (seed + 1) in
  let f = instance seed ~n in
  let _, proof = solve f in
  let u = Sat.Lit.make (Stats.Rng.int r n) (Stats.Rng.bool r) in
  let fu = Sat.Cnf.append f [ Sat.Clause.make [ u ] ] in
  let _, proof_u = solve fu in
  [ ("solver", f, Some proof);
    ("drop lemma", f, drop_lemma r proof);
    ("negate literal", f, negate_literal r proof);
    ("last delete first", f, last_delete_first proof);
    ("solver, unit added", fu, Some proof_u);
    ("unit deleted before empty", fu, delete_unit_before_empty u proof_u) ]
  |> List.filter_map (fun (kind, f, p) -> Option.map (fun p -> (kind, f, p)) p)

let agree f proof =
  Sat.Drat.check f proof = Oracle.Drat_rup.check f proof
  && Sat.Drat.check_steps f proof = Oracle.Drat_rup.check_steps f proof

let solver_proofs_match_oracle =
  QCheck.Test.make ~name:"check == counting oracle on solver proofs and mutants" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range 20 60))
    (fun (seed, n) -> List.for_all (fun (_, f, p) -> agree f p) (cases seed ~n))

(* a fixed corpus: equal verdicts, and both the accepting and the
   rejecting paths taken — every step of every unmutated proof is RUP,
   and the drop/negate mutants are rejected at least once *)
let corpus_covers_both_verdicts () =
  let accepted = Hashtbl.create 8 and rejected = Hashtbl.create 8 in
  let bump t k = Hashtbl.replace t k (1 + Option.value ~default:0 (Hashtbl.find_opt t k)) in
  for seed = 1 to 25 do
    List.iter
      (fun (kind, f, p) ->
        if not (agree f p) then Alcotest.failf "seed %d, %s: checker and oracle disagree" seed kind;
        (* a SAT run's proof stops short of the empty clause, but every
           step the solver logs is RUP *)
        if String.starts_with ~prefix:"solver" kind && Sat.Drat.check_steps f p <> Ok () then
          Alcotest.failf "seed %d, %s: a solver proof has a non-RUP step" seed kind;
        bump (if Result.is_ok (Sat.Drat.check f p) then accepted else rejected) kind)
      (cases seed ~n:(40 + seed))
  done;
  let count t k = Option.value ~default:0 (Hashtbl.find_opt t k) in
  Alcotest.(check bool) "solver proofs accepted" true (count accepted "solver" > 0);
  Alcotest.(check bool) "dropped lemmas rejected" true (count rejected "drop lemma" > 0);
  Alcotest.(check bool) "negated literals rejected" true (count rejected "negate literal" > 0)

(* random proofs over the formula's variables: additions of random
   clauses (units and the empty clause included), deletions of random
   clauses, and deletions of clauses in the database — formula clauses
   and earlier additions, literals reversed *)
let random_proof r f ~len =
  let n = Sat.Cnf.num_vars f in
  let known = ref (List.map Sat.Clause.lits (Sat.Cnf.clauses f)) in
  let random_lits () =
    if n = 0 then []
    else
      Sat.Clause.lits
        (Sat.Clause.make
           (List.init (Stats.Rng.int r 4) (fun _ ->
                Sat.Lit.make (Stats.Rng.int r n) (Stats.Rng.bool r))))
  in
  List.init len (fun _ ->
      match Stats.Rng.int r 3 with
      | 0 -> Sat.Drat.Delete (random_lits ())
      | 1 when !known <> [] ->
          Sat.Drat.Delete (List.rev (List.nth !known (Stats.Rng.int r (List.length !known))))
      | _ ->
          let lits = random_lits () in
          known := lits :: !known;
          Sat.Drat.Add lits)

let random_proofs_match_oracle =
  QCheck.Test.make ~name:"check == counting oracle on random proofs" ~count:500
    QCheck.(triple (int_bound 1_000_000) (int_range 1 8) (int_range 0 30))
    (fun (seed, n, len) ->
      let r = Testutil.rng seed in
      let f = Testutil.random_cnf r ~n ~m:(Stats.Rng.int r (4 * n)) ~k:(min 3 n) in
      agree f (random_proof r f ~len))

(* ---- hostile literals ---- *)

let cnf s = Sat.Dimacs.parse_string s

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let out_of_range_is_an_error () =
  let f = cnf "p cnf 2 1\n1 2 0\n" in
  let proof = [ Sat.Drat.Add [ Sat.Lit.pos 8 ]; Sat.Drat.Add [] ] in
  let named e = contains ~needle:"step 0: variable 9 out of range" e in
  (match Sat.Drat.check f proof with
  | Error e -> Alcotest.(check bool) ("names step and variable: " ^ e) true (named e)
  | Ok () -> Alcotest.fail "an out-of-range literal must be rejected");
  match Sat.Drat.check_steps f [ Sat.Drat.Delete [ Sat.Lit.neg_of 2 ] ] with
  | Error e ->
      Alcotest.(check bool) ("deletions too: " ^ e) true (contains ~needle:"out of range" e)
  | Ok () -> Alcotest.fail "an out-of-range deletion must be rejected"

let no_exception_escapes =
  QCheck.Test.make ~name:"no exception escapes check for any proof" ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_range 0 6))
    (fun (seed, n) ->
      let r = Testutil.rng seed in
      let f = Testutil.random_cnf r ~n ~m:(Stats.Rng.int r 10) ~k:(min 3 n) in
      let lit () =
        match Stats.Rng.int r 4 with
        | 0 -> Stats.Rng.int r 1_000_000 - 500_000
        | 1 -> if Stats.Rng.bool r then max_int else min_int
        | _ -> Stats.Rng.int r ((2 * n) + 6)
      in
      let proof =
        List.init (Stats.Rng.int r 12) (fun _ ->
            let lits = List.init (Stats.Rng.int r 4) (fun _ -> lit ()) in
            if Stats.Rng.bool r then Sat.Drat.Add lits else Sat.Drat.Delete lits)
      in
      match (Sat.Drat.check f proof, Sat.Drat.check_steps f proof) with
      | _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* ---- stopping ---- *)

let unsat_instance () =
  let rec go seed =
    let f = instance seed ~n:30 in
    match solve f with
    | Cdcl.Solver.Unsat, proof when List.length proof > 1 -> (f, proof)
    | _ -> go (seed + 1)
  in
  go 1

let stopped_check_never_passes () =
  let f, proof = unsat_instance () in
  let polls = ref 0 in
  let should_stop () =
    incr polls;
    true
  in
  (match Sat.Drat.check ~should_stop f proof with
  | Error e ->
      Alcotest.(check bool) ("reports the stop: " ^ e) true (contains ~needle:"stopped" e)
  | Ok () -> Alcotest.fail "a stopped check must not pass");
  Alcotest.(check int) "stops at the first poll" 1 !polls;
  Alcotest.(check bool) "the unstopped check passes" true (Sat.Drat.check f proof = Ok ());
  match Check.Certify.certify ~should_stop ~original:f ~solved:f ~proof Cdcl.Solver.Unsat with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a stopped certification must not certify"

(* the real minisat member, then [after] once its answer is in: the race
   has a decisive winner and only certification is left to stop *)
let member_then after ~spec ~seed =
  List.map
    (fun (m : Portfolio.member) ->
      {
        m with
        Portfolio.run =
          (fun ~obs ~parent ~should_stop ~max_iterations ~import f ->
            let stats = m.Portfolio.run ~obs ~parent ~should_stop ~max_iterations ~import f in
            after ();
            stats);
      })
    (Batch.solo ~log_proof:true "minisat" ~spec ~seed)

let stopped_unsat_job_is_not_unsat () =
  let f, _ = unsat_instance () in
  (* the cancel switch flips once the solver has answered *)
  let cancelled = ref false in
  let _, results =
    Batch.run
      ~cancel:(fun () -> !cancelled)
      ~members:(member_then (fun () -> cancelled := true))
      [ Job.make ~certify:true ~id:0 f ]
  in
  (match results with
  | [ r ] ->
      Alcotest.(check string) "cancelled, not unsat" "unknown:cancelled"
        r.Batch.record.Telemetry.outcome
  | _ -> Alcotest.fail "expected one result");
  (* the job deadline passes while the solver answers *)
  let _, results =
    Batch.run
      ~members:(member_then (fun () -> Unix.sleepf 0.1))
      [ Job.make ~certify:true ~timeout_s:0.05 ~id:0 f ]
  in
  match results with
  | [ r ] ->
      Alcotest.(check string) "timed out, not unsat" "unknown:timeout"
        r.Batch.record.Telemetry.outcome
  | _ -> Alcotest.fail "expected one result"

let suite =
  [
    Testutil.qsuite "drat.differential"
      [ solver_proofs_match_oracle; random_proofs_match_oracle; no_exception_escapes ];
    ( "drat",
      [
        Alcotest.test_case "fixed corpus: equal verdicts, both paths" `Quick
          corpus_covers_both_verdicts;
        Alcotest.test_case "out-of-range literal is an Error" `Quick out_of_range_is_an_error;
        Alcotest.test_case "stopped check never passes" `Quick stopped_check_never_passes;
        Alcotest.test_case "stopped UNSAT job is not reported unsat" `Quick
          stopped_unsat_job_is_not_unsat;
      ] );
  ]
