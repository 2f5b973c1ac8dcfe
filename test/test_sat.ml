(* Unit and property tests for the [sat] library. *)

let lit_roundtrip () =
  for v = 0 to 20 do
    let p = Sat.Lit.pos v and n = Sat.Lit.neg_of v in
    Alcotest.(check int) "var of pos" v (Sat.Lit.var p);
    Alcotest.(check int) "var of neg" v (Sat.Lit.var n);
    Alcotest.(check bool) "pos sign" true (Sat.Lit.is_pos p);
    Alcotest.(check bool) "neg sign" false (Sat.Lit.is_pos n);
    Alcotest.(check int) "negate pos" n (Sat.Lit.negate p);
    Alcotest.(check int) "negate neg" p (Sat.Lit.negate n);
    Alcotest.(check int) "dimacs roundtrip pos" p (Sat.Lit.of_dimacs (Sat.Lit.to_dimacs p));
    Alcotest.(check int) "dimacs roundtrip neg" n (Sat.Lit.of_dimacs (Sat.Lit.to_dimacs n))
  done

let lit_dimacs_zero () =
  Alcotest.check_raises "zero rejected" (Invalid_argument "Lit.of_dimacs: zero") (fun () ->
      ignore (Sat.Lit.of_dimacs 0))

let clause_normalisation () =
  let c = Sat.Clause.make [ Sat.Lit.pos 2; Sat.Lit.pos 0; Sat.Lit.pos 2; Sat.Lit.neg_of 1 ] in
  Alcotest.(check int) "dedup size" 3 (Sat.Clause.size c);
  Alcotest.(check (list int)) "vars sorted" [ 0; 1; 2 ] (Sat.Clause.vars c)

let clause_tautology () =
  let taut = Sat.Clause.make [ Sat.Lit.pos 0; Sat.Lit.neg_of 0; Sat.Lit.pos 1 ] in
  let plain = Sat.Clause.make [ Sat.Lit.pos 0; Sat.Lit.pos 1 ] in
  Alcotest.(check bool) "tautology" true (Sat.Clause.is_tautology taut);
  Alcotest.(check bool) "not tautology" false (Sat.Clause.is_tautology plain)

let cnf_bounds () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Cnf.make: literal x5 out of range (num_vars=3)") (fun () ->
      ignore (Sat.Cnf.make ~num_vars:3 [ Sat.Clause.make [ Sat.Lit.pos 5 ] ]))

let cnf_occurrence_lists () =
  let f =
    Sat.Cnf.make ~num_vars:4
      [ Sat.Clause.of_dimacs [ 1; 2 ]; Sat.Clause.of_dimacs [ -2; 3 ]; Sat.Clause.of_dimacs [ 4 ] ]
  in
  Alcotest.(check (list int)) "var 1 occurs in clause 0" [ 0 ] (Sat.Cnf.clauses_of_var f 0);
  Alcotest.(check (list int)) "var 2 occurs in 0,1" [ 0; 1 ] (Sat.Cnf.clauses_of_var f 1);
  Alcotest.(check (list int)) "var 4 occurs in 2" [ 2 ] (Sat.Cnf.clauses_of_var f 3)

let assignment_clause_status () =
  let a = Oracle.Partial.create 3 in
  let c = Sat.Clause.of_dimacs [ 1; 2; 3 ] in
  (match Oracle.Partial.clause_status a c with
  | `Unresolved -> ()
  | _ -> Alcotest.fail "expected unresolved");
  Oracle.Partial.set a 0 false;
  Oracle.Partial.set a 1 false;
  (match Oracle.Partial.clause_status a c with
  | `Unit l -> Alcotest.(check int) "unit literal" (Sat.Lit.pos 2) l
  | _ -> Alcotest.fail "expected unit");
  Oracle.Partial.set a 2 false;
  (match Oracle.Partial.clause_status a c with
  | `Falsified -> ()
  | _ -> Alcotest.fail "expected falsified");
  Oracle.Partial.set a 2 true;
  match Oracle.Partial.clause_status a c with
  | `Satisfied -> ()
  | _ -> Alcotest.fail "expected satisfied"

let dimacs_roundtrip () =
  let r = Testutil.rng 42 in
  for _ = 1 to 20 do
    let f = Testutil.random_cnf r ~n:8 ~m:20 ~k:3 in
    let f' = Sat.Dimacs.parse_string (Sat.Dimacs.to_string f) in
    Alcotest.(check bool) "roundtrip" true (Sat.Cnf.equal f f')
  done

let dimacs_comments_and_layout () =
  let doc = "c a comment\nc another\np cnf 3 2\n1 -2 0\n 3 \n 2 0\n" in
  let f = Sat.Dimacs.parse_string doc in
  Alcotest.(check int) "vars" 3 (Sat.Cnf.num_vars f);
  Alcotest.(check int) "clauses" 2 (Sat.Cnf.num_clauses f)

let dimacs_errors () =
  let bad s = try ignore (Sat.Dimacs.parse_string s); false with Sat.Dimacs.Parse_error _ -> true in
  Alcotest.(check bool) "no header" true (bad "1 2 0");
  Alcotest.(check bool) "bad count" true (bad "p cnf 2 5\n1 0");
  Alcotest.(check bool) "unterminated" true (bad "p cnf 2 1\n1 2");
  Alcotest.(check bool) "var overflow" true (bad "p cnf 1 1\n5 0")

(* ---- the shared lexer behind DIMACS, WDIMACS and DRAT ---- *)

let dimacs s = ignore (Sat.Dimacs.parse_string s)
let wcnf s = ignore (Sat.Wcnf.parse_string s)
let drat s = ignore (Sat.Drat.parse_string s)

(* the line [parse doc] fails on; [None] if it accepts *)
let error_line parse doc =
  match parse doc with () -> None | exception Sat.Lexer.Parse_error { line; _ } -> Some line

let lexer_decimal_only () =
  (* each format with one integer slot, and the line the slot is on *)
  let slots =
    [
      ("dimacs header", dimacs, (fun t -> "c x\np cnf " ^ t ^ " 1\n1 0\n"), 2);
      ("dimacs literal", dimacs, (fun t -> "p cnf 3 1\nc x\n1 " ^ t ^ " 0\n"), 3);
      ("wcnf weight", wcnf, (fun t -> "p wcnf 3 1 10\n\n" ^ t ^ " 1 0\n"), 3);
      ("headerless literal", wcnf, (fun t -> "h 1 0\nc x\n2 " ^ t ^ " 0\n"), 3);
      ("drat literal", drat, (fun t -> "1 2 0\nd 1 2 0\n" ^ t ^ " 0\n"), 3);
    ]
  in
  List.iter
    (fun (name, parse, doc, line) ->
      List.iter
        (fun tok ->
          Alcotest.(check (option int)) (name ^ " " ^ tok) (Some line) (error_line parse (doc tok)))
        [ "0x3"; "0b11"; "-0o2"; "1_0"; "+1"; "--1"; "12345678901234567890"; "-" ])
    slots

let lexer_hostile_headers () =
  List.iter
    (fun (parse, doc) ->
      let before = Gc.allocated_bytes () in
      let line = error_line parse doc in
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check (option int)) doc (Some 1) line;
      Alcotest.(check bool)
        (Printf.sprintf "%S: %.0f bytes allocated" doc allocated)
        true (allocated < 65536.))
    [
      (dimacs, "p cnf 4000000000 1\n1 0\n");
      (wcnf, "p wcnf 4000000000 1 5\n1 1 0\n");
      (wcnf, "1 4000000000 0");
      (* more clauses than the input has bytes to hold *)
      (dimacs, "p cnf 3 2000000000\n1 0\n");
    ];
  let f = Sat.Dimacs.parse_string (Printf.sprintf "p cnf %d 1\n1 0\n" Sat.Lexer.max_vars) in
  Alcotest.(check int) "the cap itself is accepted" Sat.Lexer.max_vars (Sat.Cnf.num_vars f)

let lexer_comment_lines () =
  (* a line whose first non-blank character is c is a comment in every
     format, including DRAT lines such as "cx" *)
  Alcotest.(check (option int)) "dimacs" None (error_line dimacs "c\np cnf 1 1\n\tcx 0\n1 0\n");
  Alcotest.(check (option int)) "wcnf" None (error_line wcnf "cx\nh 1 0\n");
  Alcotest.(check bool) "drat" true
    (Sat.Drat.parse_string "cx\n  c\n1 0\n" = [ Sat.Drat.Add [ Sat.Lit.pos 0 ] ])

let three_sat_size () =
  let big = Sat.Clause.of_dimacs [ 1; 2; 3; 4; 5; 6 ] in
  let f = Sat.Cnf.make ~num_vars:6 [ big ] in
  let f3, mapping = Sat.Three_sat.convert f in
  Alcotest.(check bool) "is 3sat" true (Sat.Cnf.is_3sat f3);
  Alcotest.(check int) "aux count" 3 mapping.Sat.Three_sat.aux_vars

let three_sat_equisatisfiable =
  QCheck.Test.make ~name:"ksat->3sat preserves satisfiability" ~count:60
    (QCheck.make
       QCheck.Gen.(
         int_range 4 9 >>= fun n ->
         int_range 1 12 >>= fun m ->
         int_bound 100000 >>= fun seed ->
         return
           (let r = Testutil.rng (seed + n + (m * 977)) in
            Sat.Cnf.make ~num_vars:n
              (List.init m (fun _ ->
                   let k = 2 + Stats.Rng.int r 4 in
                   Testutil.random_clause r ~n ~k:(min k n))))))
    (fun f ->
      let f3, _ = Sat.Three_sat.convert f in
      let sat = Oracle.Brute.solve f <> None and sat3 = Oracle.Brute.solve f3 <> None in
      sat = sat3)

let three_sat_model_projects =
  QCheck.Test.make ~name:"3sat model projects to original model" ~count:40
    Testutil.small_cnf_arb (fun f ->
      let f3, mapping = Sat.Three_sat.convert f in
      match Oracle.Brute.solve f3 with
      | None -> true
      | Some m3 ->
          (* original variables come first: the prefix is the model *)
          let m = Array.sub m3 0 mapping.Sat.Three_sat.original_vars in
          Testutil.check_model f m)

let brute_simple () =
  let f = Sat.Dimacs.parse_string "p cnf 2 3\n1 2 0\n-1 0\n-1 2 0\n" in
  (match Oracle.Brute.solve f with
  | Some m ->
      Alcotest.(check bool) "x1 false" false m.(0);
      Alcotest.(check bool) "x2 true" true m.(1)
  | None -> Alcotest.fail "should be satisfiable");
  let unsat = Sat.Dimacs.parse_string "p cnf 1 2\n1 0\n-1 0\n" in
  Alcotest.(check bool) "unsat" true (Oracle.Brute.solve unsat = None);
  Alcotest.(check int) "min unsatisfied" 1 (Oracle.Brute.min_unsatisfied unsat)

let brute_count () =
  (* x1 ∨ x2 has 3 models over 2 vars *)
  let f = Sat.Dimacs.parse_string "p cnf 2 1\n1 2 0\n" in
  Alcotest.(check int) "models" 3 (Oracle.Brute.count_models f)

let suite =
  [
    ( "sat.lit",
      [
        Alcotest.test_case "roundtrip" `Quick lit_roundtrip;
        Alcotest.test_case "dimacs zero" `Quick lit_dimacs_zero;
      ] );
    ( "sat.clause",
      [
        Alcotest.test_case "normalisation" `Quick clause_normalisation;
        Alcotest.test_case "tautology" `Quick clause_tautology;
      ] );
    ( "sat.cnf",
      [
        Alcotest.test_case "bounds" `Quick cnf_bounds;
        Alcotest.test_case "occurrence lists" `Quick cnf_occurrence_lists;
      ] );
    ("sat.assignment", [ Alcotest.test_case "clause status" `Quick assignment_clause_status ]);
    ( "sat.dimacs",
      [
        Alcotest.test_case "roundtrip" `Quick dimacs_roundtrip;
        Alcotest.test_case "comments/layout" `Quick dimacs_comments_and_layout;
        Alcotest.test_case "errors" `Quick dimacs_errors;
      ] );
    ( "sat.lexer",
      [
        Alcotest.test_case "decimal integers only" `Quick lexer_decimal_only;
        Alcotest.test_case "hostile headers" `Quick lexer_hostile_headers;
        Alcotest.test_case "comment lines" `Quick lexer_comment_lines;
      ] );
    ( "sat.three_sat",
      [
        Alcotest.test_case "sizes" `Quick three_sat_size;
        QCheck_alcotest.to_alcotest three_sat_equisatisfiable;
        QCheck_alcotest.to_alcotest three_sat_model_projects;
      ] );
    ( "sat.brute",
      [
        Alcotest.test_case "simple" `Quick brute_simple;
        Alcotest.test_case "count" `Quick brute_count;
      ] );
  ]
