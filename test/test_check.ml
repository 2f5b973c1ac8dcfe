(* Tests for the certification subsystem: SATLIB/DRAT parser hardening,
   negative DRAT-checker cases, certified solving, batch certification
   hooks, portfolio exception safety, and the differential fuzzer. *)

module Certify = Check.Certify
module Fuzz = Oracle.Fuzz
module Job = Service.Job
module Portfolio = Service.Portfolio
module Batch = Service.Batch
module Telemetry = Service.Telemetry

let cnf = Sat.Dimacs.parse_string

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* DIMACS: SATLIB footers, CRLF, whitespace *)

let dimacs_satlib_footer () =
  (* the uf50-218 family ends with "%" then a lone "0" *)
  let f = cnf "p cnf 3 2\n1 2 3 0\n-1 -2 0\n%\n0\n" in
  Alcotest.(check int) "clauses" 2 (Sat.Cnf.num_clauses f);
  Alcotest.(check int) "vars" 3 (Sat.Cnf.num_vars f);
  (* footer plus blank trailing junk *)
  let g = cnf "p cnf 2 1\n1 2 0\n%\n0\n\n   \n" in
  Alcotest.(check int) "clauses after junk" 1 (Sat.Cnf.num_clauses g)

let dimacs_crlf_and_tabs () =
  let f = cnf "c comment\r\np cnf 3 2\r\n1\t2 3 0\r\n-1 -2\t0\r\n%\r\n0\r\n" in
  Alcotest.(check int) "clauses" 2 (Sat.Cnf.num_clauses f);
  Alcotest.(check bool) "same as plain LF" true
    (Sat.Cnf.equal f (cnf "p cnf 3 2\n1 2 3 0\n-1 -2 0\n"))

let dimacs_footer_does_not_mask_errors () =
  let bad s = try ignore (cnf s); false with Sat.Dimacs.Parse_error _ -> true in
  (* missing clause is still an error: the footer only ends the section *)
  Alcotest.(check bool) "undeclared clause count" true (bad "p cnf 3 2\n1 2 3 0\n%\n0\n");
  (* unterminated clause before the footer is still an error *)
  Alcotest.(check bool) "unterminated clause" true (bad "p cnf 3 1\n1 2 3\n%\n0\n")

(* ------------------------------------------------------------------ *)
(* DRAT parser *)

let drat_parse_whitespace () =
  let p = Sat.Drat.parse_string "1\t-2 0\nd\t1 -2 0\r\n c nothing\n\n-3 0\n" in
  Alcotest.(check int) "steps" 3 (List.length p);
  match p with
  | [ Sat.Drat.Add a; Sat.Drat.Delete d; Sat.Drat.Add b ] ->
      Alcotest.(check (list int)) "add lits" [ 1; -2 ] (List.map Sat.Lit.to_dimacs a);
      Alcotest.(check (list int)) "delete lits" [ 1; -2 ] (List.map Sat.Lit.to_dimacs d);
      Alcotest.(check (list int)) "second add" [ -3 ] (List.map Sat.Lit.to_dimacs b)
  | _ -> Alcotest.fail "unexpected step shapes"

let drat_parse_rejects_bare_d () =
  let fails s = try ignore (Sat.Drat.parse_string s); false with Sat.Drat.Parse_error _ -> true in
  Alcotest.(check bool) "bare d line" true (fails "1 2 0\nd\n");
  Alcotest.(check bool) "bare d with spaces" true (fails "d   \n");
  Alcotest.(check bool) "unterminated" true (fails "1 2\n");
  Alcotest.(check bool) "non-integer" true (fails "1 x 0\n")

(* ------------------------------------------------------------------ *)
(* DRAT checker negatives *)

let drat_rejects_non_rup_step () =
  let f = cnf "p cnf 2 1\n1 2 0\n" in
  (* assuming -1 propagates 2 but reaches no conflict: not RUP *)
  let proof = [ Sat.Drat.Add [ Sat.Lit.pos 0 ] ] in
  match Sat.Drat.check_steps f proof with
  | Error e -> Alcotest.(check bool) "names the step" true (contains ~needle:"RUP" e)
  | Ok () -> Alcotest.fail "non-RUP addition must be rejected"

let drat_requires_empty_clause () =
  let f = cnf "p cnf 1 2\n1 0\n-1 0\n" in
  (* a perfectly valid derivation that stops before the empty clause *)
  let proof = [] in
  (match Sat.Drat.check f proof with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "check must require the empty clause");
  match Sat.Drat.check_steps f proof with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("check_steps should accept a partial derivation: " ^ e)

let drat_rejects_deleting_load_bearing_clause () =
  let f = cnf "p cnf 1 2\n1 0\n-1 0\n" in
  (* without the deletion this is the canonical 2-step refutation *)
  (match Sat.Drat.check f [ Sat.Drat.Add [] ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("baseline refutation should check: " ^ e));
  (* deleting (1) first removes the conflict the empty clause relies on *)
  let proof = [ Sat.Drat.Delete [ Sat.Lit.pos 0 ]; Sat.Drat.Add [] ] in
  match Sat.Drat.check f proof with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty clause after deleting its support must fail"

(* ------------------------------------------------------------------ *)
(* certified solving *)

(* one certified job through the product path, as the CLI runs it *)
let certified_job ?(cancel = fun () -> false) ?(member = "minisat") spec =
  Batch.process ~cancel
    ~members:(Batch.solo ~log_proof:true member)
    ~obs:Obs.Ctx.null ~parent:Obs.Span.none spec ~enqueued_at:(Unix.gettimeofday ()) ()

let certify_sat_projects_to_original () =
  (* k-SAT input: the solver sees the 3-SAT conversion, the certificate and
     the model are stated over the original *)
  let f = cnf "p cnf 4 2\n1 2 3 4 0\n-1 -2 0\n" in
  let spec = Job.make ~certify:true ~id:0 f in
  Alcotest.(check bool) "conversion happened" true (spec.Job.original <> None);
  let r = certified_job spec in
  Alcotest.(check string) "model certificate" "model" r.Batch.record.Telemetry.verified;
  match r.Batch.outcome with
  | Job.Sat m ->
      Alcotest.(check int) "model in original space" 4 (Array.length m);
      Alcotest.(check bool) "satisfies original" true (Testutil.check_model f m)
  | _ -> Alcotest.fail "sat answer must carry a model"

let certify_unsat_with_proof () =
  (* all 16 sign combinations over 4 variables: UNSAT, k-SAT *)
  let clauses =
    List.init 16 (fun bits ->
        Printf.sprintf "%d %d %d %d 0"
          (if bits land 1 = 0 then 1 else -1)
          (if bits land 2 = 0 then 2 else -2)
          (if bits land 4 = 0 then 3 else -3)
          (if bits land 8 = 0 then 4 else -4))
  in
  let f = cnf ("p cnf 4 16\n" ^ String.concat "\n" clauses ^ "\n") in
  let r = certified_job ~member:"hybrid" (Job.make ~certify:true ~id:0 f) in
  Alcotest.(check string) "outcome" "unsat" r.Batch.record.Telemetry.outcome;
  Alcotest.(check string) "proof certificate" "proof" r.Batch.record.Telemetry.verified;
  match r.Batch.race.Portfolio.winner with
  | Some { Portfolio.stats = { Portfolio.proof = Some p; _ }; _ } ->
      Alcotest.(check bool) "proof has steps" true (p <> [])
  | _ -> Alcotest.fail "the unsat winner must carry its proof"

let certify_rejects_wrong_model () =
  let f = cnf "p cnf 2 2\n1 0\n2 0\n" in
  (match Certify.check_model ~original:f [| true; false |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "falsified clause must be reported");
  (match Certify.check_model ~original:f [| true |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "short model must be rejected");
  (* a longer model (3-SAT aux variables) is truncated, not rejected *)
  match Certify.check_model ~original:f [| true; true; false |] with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("aux-extended model should pass: " ^ e)

(* ------------------------------------------------------------------ *)
(* portfolio exception safety *)

let failing_member name =
  {
    Portfolio.name;
    run = (fun ~obs:_ ~parent:_ ~should_stop:_ ~max_iterations:_ ~import:_ _f -> failwith (name ^ " exploded"));
  }

let honest_member model =
  {
    Portfolio.name = "honest";
    run =
      (fun ~obs:_ ~parent:_ ~should_stop:_ ~max_iterations:_ ~import:_ _f ->
        {
          Portfolio.result = Cdcl.Solver.Sat model;
          iterations = 1;
          qa_calls = 0;
          qa_failures = 0;
          qa_degraded = 0;
          strategy_uses = Array.make 4 0;
          reused_clauses = 0;
          learnts = [];
          proof = None;
        });
  }

let race_survives_raising_member () =
  let f = cnf "p cnf 1 1\n1 0\n" in
  let report = Portfolio.race [ failing_member "boom"; honest_member [| true |] ] f in
  (match report.Portfolio.winner with
  | Some w -> Alcotest.(check string) "honest member wins" "honest" w.Portfolio.member
  | None -> Alcotest.fail "the winner must survive a raising sibling");
  Alcotest.(check int) "both members reported" 2 (List.length report.Portfolio.members);
  let failed = List.find (fun m -> m.Portfolio.member = "boom") report.Portfolio.members in
  (match failed.Portfolio.error with
  | Some e ->
      Alcotest.(check bool) "error carries the exception" true (contains ~needle:"exploded" e)
  | None -> Alcotest.fail "raising member must carry an error");
  match failed.Portfolio.stats.Portfolio.result with
  | Cdcl.Solver.Unknown _ -> ()
  | _ -> Alcotest.fail "raising member reports Unknown"

let race_all_members_raising () =
  let f = cnf "p cnf 1 1\n1 0\n" in
  let report = Portfolio.race [ failing_member "a"; failing_member "b" ] f in
  Alcotest.(check bool) "no winner" true (report.Portfolio.winner = None);
  Alcotest.(check int) "both reported" 2 (List.length report.Portfolio.members);
  List.iter
    (fun m -> Alcotest.(check bool) "errored" true (m.Portfolio.error <> None))
    report.Portfolio.members

(* ------------------------------------------------------------------ *)
(* batch certification *)

let lying_sat_member () =
  {
    Portfolio.name = "liar";
    run =
      (fun ~obs:_ ~parent:_ ~should_stop:_ ~max_iterations:_ ~import:_ f ->
        {
          (* a model of all-false: falsifies any positive clause *)
          Portfolio.result = Cdcl.Solver.Sat (Array.make (Sat.Cnf.num_vars f) false);
          iterations = 1;
          qa_calls = 0;
          qa_failures = 0;
          qa_degraded = 0;
          strategy_uses = Array.make 4 0;
          reused_clauses = 0;
          learnts = [];
          proof = None;
        });
  }

let lying_unsat_member () =
  {
    Portfolio.name = "liar-unsat";
    run =
      (fun ~obs:_ ~parent:_ ~should_stop:_ ~max_iterations:_ ~import:_ _f ->
        {
          Portfolio.result = Cdcl.Solver.Unsat;
          iterations = 1;
          qa_calls = 0;
          qa_failures = 0;
          qa_degraded = 0;
          strategy_uses = Array.make 4 0;
          reused_clauses = 0;
          learnts = [];
          proof = None;
        });
  }

let batch_certifies_honest_answers () =
  let f = Workload.Uniform.uf (Testutil.rng 3) 20 in
  let jobs = [ Job.make ~certify:true ~id:0 f ] in
  let members = Batch.solo ~log_proof:true "minisat" in
  let _, results = Batch.run ~members jobs in
  match results with
  | [ r ] ->
      Alcotest.(check string) "outcome" "sat" r.Batch.record.Telemetry.outcome;
      Alcotest.(check string) "verified" "model" r.Batch.record.Telemetry.verified
  | _ -> Alcotest.fail "expected one result"

let batch_certifies_unsat_proof () =
  let f = cnf "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n" in
  let jobs = [ Job.make ~certify:true ~id:0 f ] in
  let members = Batch.solo ~log_proof:true "minisat" in
  let _, results = Batch.run ~members jobs in
  match results with
  | [ r ] ->
      Alcotest.(check string) "outcome" "unsat" r.Batch.record.Telemetry.outcome;
      Alcotest.(check string) "verified" "proof" r.Batch.record.Telemetry.verified
  | _ -> Alcotest.fail "expected one result"

let batch_withholds_uncertified_claims () =
  let f = cnf "p cnf 2 1\n1 2 0\n" in
  let run members_fn =
    let jobs = [ Job.make ~certify:true ~id:0 f ] in
    let _, results = Batch.run ~members:members_fn jobs in
    List.hd results
  in
  let r = run (fun ~spec:_ ~seed:_ -> [ lying_sat_member () ]) in
  Alcotest.(check string) "bogus model withheld" "unknown:cert-failed"
    r.Batch.record.Telemetry.outcome;
  Alcotest.(check bool) "reason recorded" true
    (String.length r.Batch.record.Telemetry.verified >= 6
    && String.sub r.Batch.record.Telemetry.verified 0 6 = "failed");
  let r = run (fun ~spec:_ ~seed:_ -> [ lying_unsat_member () ]) in
  Alcotest.(check string) "proofless unsat withheld" "unknown:cert-failed"
    r.Batch.record.Telemetry.outcome

let batch_projects_models_to_original () =
  (* what the fixed CLI does for a k-SAT input *)
  let original = cnf "p cnf 4 2\n1 2 3 4 0\n-1 -2 0\n" in
  let converted, _map = Sat.Three_sat.convert original in
  let jobs = [ Job.make ~original ~certify:true ~id:0 converted ] in
  let members = Batch.solo ~log_proof:true "minisat" in
  let _, results = Batch.run ~members jobs in
  match results with
  | [ { Batch.outcome = Job.Sat m; record; _ } ] ->
      Alcotest.(check int) "model in original space" (Sat.Cnf.num_vars original)
        (Array.length m);
      Alcotest.(check bool) "satisfies the original formula" true
        (Testutil.check_model original m);
      Alcotest.(check string) "certified" "model" record.Telemetry.verified
  | _ -> Alcotest.fail "expected one sat result"

let batch_cancelled_opt_job_is_cancelled () =
  (* a certified optimisation job stopped before it has a model claims
     nothing: it is cancelled, not a failed certification *)
  let w = Sat.Wcnf.parse_string "p wcnf 3 4 10\n10 1 2 0\n3 -1 0\n2 -2 3 0\n4 -3 0\n" in
  let r = certified_job ~cancel:(fun () -> true) (Job.optimize ~certify:true ~id:0 w) in
  Alcotest.(check string) "outcome" "unknown:cancelled" r.Batch.record.Telemetry.outcome;
  Alcotest.(check string) "nothing certified" "" r.Batch.record.Telemetry.verified

(* ------------------------------------------------------------------ *)
(* fuzzing harness *)

let shrink_minimises () =
  let f = cnf "p cnf 4 4\n1 2 0\n3 4 0\n-1 -2 0\n-3 0\n" in
  (* synthetic failure, invariant under variable renaming: a unit clause *)
  let still_fails g =
    List.exists (fun c -> Sat.Clause.size c = 1) (Sat.Cnf.clauses g)
  in
  let shrunk = Fuzz.shrink ~still_fails f in
  Alcotest.(check int) "one clause left" 1 (Sat.Cnf.num_clauses shrunk);
  Alcotest.(check bool) "still failing" true (still_fails shrunk);
  Alcotest.(check int) "vars compacted" 1 (Sat.Cnf.num_vars shrunk)

let fuzz_reproducer_is_dimacs () =
  let f = cnf "p cnf 2 1\n1 2 0\n" in
  let failure =
    { Fuzz.instance_seed = 42; instance = f; shrunk = f; reason = "synthetic" }
  in
  let doc = Fuzz.reproducer failure in
  let f' = cnf doc in
  Alcotest.(check bool) "reproducer parses back" true (Sat.Cnf.equal f f')

let differential_fuzz_campaign () =
  (* the acceptance bar: ≥200 random instances, hybrid vs minisat vs brute,
     every answer certified, zero disagreements *)
  let outcome = Fuzz.run Fuzz.default_config in
  Alcotest.(check int) "ran the full campaign" 200 outcome.Fuzz.ran;
  match outcome.Fuzz.failures with
  | [] -> ()
  | failure :: _ ->
      Alcotest.fail
        (Printf.sprintf "fuzzer found a divergence: %s\nreproducer:\n%s" failure.Fuzz.reason
           (Fuzz.reproducer failure))

let suite =
  [
    ( "check",
      [
        Alcotest.test_case "dimacs: SATLIB %% footer" `Quick dimacs_satlib_footer;
        Alcotest.test_case "dimacs: CRLF and tabs" `Quick dimacs_crlf_and_tabs;
        Alcotest.test_case "dimacs: footer masks no errors" `Quick
          dimacs_footer_does_not_mask_errors;
        Alcotest.test_case "drat: whitespace tokenization" `Quick drat_parse_whitespace;
        Alcotest.test_case "drat: rejects bare d" `Quick drat_parse_rejects_bare_d;
        Alcotest.test_case "drat: rejects non-RUP step" `Quick drat_rejects_non_rup_step;
        Alcotest.test_case "drat: requires empty clause" `Quick drat_requires_empty_clause;
        Alcotest.test_case "drat: deletion breaks proof" `Quick
          drat_rejects_deleting_load_bearing_clause;
        Alcotest.test_case "certify: sat projects to original" `Quick
          certify_sat_projects_to_original;
        Alcotest.test_case "certify: unsat carries checked proof" `Quick
          certify_unsat_with_proof;
        Alcotest.test_case "certify: rejects wrong model" `Quick certify_rejects_wrong_model;
        Alcotest.test_case "portfolio: race survives raising member" `Quick
          race_survives_raising_member;
        Alcotest.test_case "portfolio: all members raising" `Quick race_all_members_raising;
        Alcotest.test_case "batch: certifies honest answers" `Quick
          batch_certifies_honest_answers;
        Alcotest.test_case "batch: certifies unsat proof" `Quick batch_certifies_unsat_proof;
        Alcotest.test_case "batch: withholds uncertified claims" `Quick
          batch_withholds_uncertified_claims;
        Alcotest.test_case "batch: projects models to original" `Quick
          batch_projects_models_to_original;
        Alcotest.test_case "batch: cancelled certified wcnf job" `Quick
          batch_cancelled_opt_job_is_cancelled;
        Alcotest.test_case "fuzz: shrink minimises" `Quick shrink_minimises;
        Alcotest.test_case "fuzz: reproducer round-trips" `Quick fuzz_reproducer_is_dimacs;
        Alcotest.test_case "fuzz: 200-instance differential campaign" `Slow
          differential_fuzz_campaign;
      ] );
  ]
