(* Tests for DRAT proof logging and checking. *)

module Drat = Sat.Drat

(* ---- drat ---- *)

let drat_roundtrip () =
  let proof =
    [
      Drat.Add [ Sat.Lit.pos 0; Sat.Lit.neg_of 2 ];
      Drat.Delete [ Sat.Lit.pos 1 ];
      Drat.Add [];
    ]
  in
  Alcotest.(check bool) "roundtrip" true (Drat.parse_string (Drat.to_string proof) = proof)

let drat_checker_accepts_resolution () =
  (* (x1 ∨ x2) (¬x1 ∨ x2) (¬x2): adding (x2) is RUP, then [] is RUP *)
  let f = Sat.Dimacs.parse_string "p cnf 2 3\n1 2 0\n-1 2 0\n-2 0\n" in
  let proof = [ Drat.Add [ Sat.Lit.pos 1 ]; Drat.Add [] ] in
  (match Drat.check f proof with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* a bogus addition must be rejected: against (x1 ∨ x2) alone, assuming
     ¬x1 only makes the clause unit — no conflict, so (x1) is not RUP *)
  let g = Sat.Dimacs.parse_string "p cnf 2 1\n1 2 0\n" in
  let bogus = [ Drat.Add [ Sat.Lit.pos 0 ] ] in
  match Drat.check_steps g bogus with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-RUP clause accepted"

let drat_requires_empty_clause () =
  let f = Sat.Dimacs.parse_string "p cnf 2 2\n1 2 0\n-2 0\n" in
  (* valid derivation but no contradiction: check must fail, check_steps pass *)
  let proof = [ Drat.Add [ Sat.Lit.pos 0 ] ] in
  (match Drat.check_steps f proof with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Drat.check f proof with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted without the empty clause"

let solver_proofs_check =
  QCheck.Test.make ~name:"solver UNSAT answers carry checkable DRAT proofs" ~count:120
    Testutil.small_cnf_arb (fun f ->
      let config = Cdcl.Config.with_proof_logging Cdcl.Config.minisat_like in
      let s = Cdcl.Solver.create ~config f in
      match Cdcl.Solver.solve s with
      | Cdcl.Solver.Sat _ -> (
          (* derivation steps must still be individually valid *)
          match Cdcl.Solver.proof s with
          | Some proof -> Drat.check_steps f proof = Ok ()
          | None -> false)
      | Cdcl.Solver.Unsat -> (
          match Cdcl.Solver.proof s with
          | Some proof -> Drat.check f proof = Ok ()
          | None -> false)
      | Cdcl.Solver.Unknown _ -> false)

let solver_proof_on_pigeonhole () =
  (* a structured UNSAT family with clause deletions in play *)
  let f = Test_cdcl.pigeonhole ~holes:4 in
  let config = Cdcl.Config.with_proof_logging Cdcl.Config.minisat_like in
  let s = Cdcl.Solver.create ~config f in
  (match Cdcl.Solver.solve s with
  | Cdcl.Solver.Unsat -> ()
  | _ -> Alcotest.fail "php unsat");
  match Cdcl.Solver.proof s with
  | None -> Alcotest.fail "no proof"
  | Some proof -> (
      Alcotest.(check bool) "nonempty proof" true (List.length proof > 1);
      match Drat.check f proof with Ok () -> () | Error e -> Alcotest.fail e)

(* Resuming a budgeted solve re-enters root simplification, which deletes
   learnt clauses satisfied at level 0 — including the reasons of root
   literals.  The proof must keep those literals as units, or later lemmas
   that relied on them stop being RUP for the checker. *)
let resumed_proofs_check () =
  for seed = 1 to 50 do
    let rng = Stats.Rng.create ~seed in
    let n = 40 + (seed mod 50) in
    let m = int_of_float (Float.ceil (4.6 *. float_of_int n)) in
    let f = Workload.Uniform.generate ~planted:false rng ~num_vars:n ~num_clauses:m in
    List.iter
      (fun k ->
        let config = Cdcl.Config.with_proof_logging Cdcl.Config.minisat_like in
        let s = Cdcl.Solver.create ~config f in
        let rec go () =
          match Cdcl.Solver.solve ~max_conflicts:k s with
          | Cdcl.Solver.Unknown _ -> go ()
          | r -> r
        in
        match go () with
        | Cdcl.Solver.Unsat -> (
            match Drat.check f (Option.get (Cdcl.Solver.proof s)) with
            | Ok () -> ()
            | Error e -> Alcotest.failf "seed %d, k = %d: %s" seed k e)
        | _ -> ())
      [ 1; 3; 10 ]
  done

let no_proof_without_flag () =
  let f = Sat.Dimacs.parse_string "p cnf 1 2\n1 0\n-1 0\n" in
  let s = Cdcl.Solver.create f in
  ignore (Cdcl.Solver.solve s);
  Alcotest.(check bool) "no proof" true (Cdcl.Solver.proof s = None)

let suite =
  [
    ( "sat.drat",
      [
        Alcotest.test_case "roundtrip" `Quick drat_roundtrip;
        Alcotest.test_case "accepts resolution" `Quick drat_checker_accepts_resolution;
        Alcotest.test_case "requires empty clause" `Quick drat_requires_empty_clause;
        QCheck_alcotest.to_alcotest solver_proofs_check;
        Alcotest.test_case "pigeonhole proof" `Quick solver_proof_on_pigeonhole;
        Alcotest.test_case "resumed solves keep root units" `Quick resumed_proofs_check;
        Alcotest.test_case "off by default" `Quick no_proof_without_flag;
      ] );
  ]
