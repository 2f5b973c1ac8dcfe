(* Certified answers end to end: a k-SAT instance is 3-SAT-converted, solved
   by the hybrid pipeline with DRAT logging, and the answer is checked — the
   model against the ORIGINAL formula, the proof by reverse unit propagation.
   Finishes with a mini differential-fuzzing campaign.

   Run with: dune exec examples/certified_demo.exe *)

let describe (c : Check.Certify.t) =
  (match c.Check.Certify.mapping with
  | Some m ->
      Format.printf "converted: +%d auxiliary chain variables@." m.Sat.Three_sat.aux_vars
  | None -> Format.printf "already 3-SAT, no conversion@.");
  (match c.Check.Certify.report.Hyqsat.Hybrid_solver.result with
  | Cdcl.Solver.Sat _ -> Format.printf "answer: SATISFIABLE@."
  | Cdcl.Solver.Unsat -> Format.printf "answer: UNSATISFIABLE@."
  | Cdcl.Solver.Unknown _ -> Format.printf "answer: UNKNOWN@.");
  match c.Check.Certify.certificate with
  | Ok Check.Certify.Model_verified ->
      Format.printf "certified: model satisfies the original formula@."
  | Ok (Check.Certify.Proof_verified steps) ->
      Format.printf "certified: %d-step DRAT proof passes the RUP checker@." steps
  | Ok Check.Certify.Nothing_to_certify -> Format.printf "nothing to certify@."
  | Error why -> Format.printf "CERTIFICATION FAILED: %s@." why

let () =
  (* a 5-SAT pigeon-ish instance: SAT, exercises the conversion path *)
  let sat_doc = "p cnf 5 3\n1 2 3 4 5 0\n-1 -2 -3 -4 0\n-5 1 0\n" in
  Format.printf "--- certified hybrid solve (k-SAT, satisfiable)@.";
  describe (Check.Certify.solve (Sat.Dimacs.parse_string sat_doc));

  (* all sign combinations over 4 variables: UNSAT, also k-SAT *)
  let clauses =
    List.init 16 (fun bits ->
        String.concat " "
          (List.init 4 (fun v ->
               string_of_int (if bits land (1 lsl v) = 0 then v + 1 else -(v + 1)))
          @ [ "0" ]))
  in
  let unsat_doc = "p cnf 4 16\n" ^ String.concat "\n" clauses ^ "\n" in
  Format.printf "@.--- certified hybrid solve (k-SAT, unsatisfiable)@.";
  describe (Check.Certify.solve (Sat.Dimacs.parse_string unsat_doc));

  Format.printf "@.--- differential fuzzing (hybrid vs minisat vs brute force)@.";
  let config = { Oracle.Fuzz.default_config with Oracle.Fuzz.instances = 25 } in
  let outcome = Oracle.Fuzz.run config in
  Format.printf "ran %d random instances, %d disagreements@." outcome.Oracle.Fuzz.ran
    (List.length outcome.Oracle.Fuzz.failures);
  List.iter
    (fun f -> Format.printf "@.%s@." (Oracle.Fuzz.reproducer f))
    outcome.Oracle.Fuzz.failures
