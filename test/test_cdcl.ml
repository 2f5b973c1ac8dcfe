(* Unit and property tests for the CDCL solver and its support structures. *)

module Vec = Cdcl.Vec
module Var_heap = Cdcl.Var_heap
module Luby = Cdcl.Luby
module Config = Cdcl.Config
module Solver = Cdcl.Solver

let vec_basics () =
  let v = Vec.create ~dummy:0 () in
  Alcotest.(check int) "empty" 0 (Vec.size v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "size" 100 (Vec.size v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.shrink v 99;
  Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check int) "filtered size" 50 (Vec.size v);
  Alcotest.(check int) "filtered order" 10 (Vec.get v 5);
  Vec.shrink v 3;
  Alcotest.(check (list int)) "shrunk" [ 0; 2; 4 ] (List.init (Vec.size v) (Vec.get v))

let heap_orders_by_activity () =
  let act = [| 5.0; 1.0; 9.0; 3.0; 7.0 |] in
  let h = Var_heap.create 5 act in
  let order = List.init 5 (fun _ -> Var_heap.pop_max h) in
  Alcotest.(check (list int)) "descending activity" [ 2; 4; 0; 3; 1 ] order;
  Alcotest.(check bool) "empty" true (Var_heap.is_empty h)

let heap_notify_increase () =
  let act = [| 1.0; 2.0; 3.0 |] in
  let h = Var_heap.create 3 act in
  act.(0) <- 10.0;
  Var_heap.notify_increase h 0;
  Alcotest.(check int) "bumped var first" 0 (Var_heap.pop_max h)

let heap_reinsert () =
  let act = [| 1.0; 2.0 |] in
  let h = Var_heap.create 2 act in
  let v = Var_heap.pop_max h in
  Alcotest.(check int) "max" 1 v;
  Alcotest.(check bool) "absent" false (Var_heap.in_heap h 1);
  Var_heap.insert h 1;
  Var_heap.insert h 1;
  Alcotest.(check int) "size after double insert" 2 (Var_heap.size h)

let luby_prefix () =
  let expected = [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ] in
  let got = List.init 15 (fun i -> Luby.luby (i + 1)) in
  Alcotest.(check (list int)) "luby prefix" expected got

let solve_with config f = Solver.solve (Solver.create ~config f)

let trivial_sat () =
  let f = Sat.Dimacs.parse_string "p cnf 2 2\n1 2 0\n-1 2 0\n" in
  match solve_with Config.minisat_like f with
  | Solver.Sat m -> Alcotest.(check bool) "model valid" true (Testutil.check_model f m)
  | _ -> Alcotest.fail "expected SAT"

let trivial_unsat () =
  let f = Sat.Dimacs.parse_string "p cnf 1 2\n1 0\n-1 0\n" in
  Alcotest.(check bool) "unsat" true (solve_with Config.minisat_like f = Solver.Unsat)

let empty_clause_unsat () =
  let f = Sat.Cnf.make ~num_vars:2 [ Sat.Clause.make [] ] in
  Alcotest.(check bool) "unsat" true (solve_with Config.minisat_like f = Solver.Unsat)

let empty_formula_sat () =
  let f = Sat.Cnf.make ~num_vars:3 [] in
  match solve_with Config.minisat_like f with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "empty formula is satisfiable"

let unit_propagation_only () =
  (* a chain of implications solvable without decisions *)
  let f =
    Sat.Dimacs.parse_string "p cnf 4 4\n1 0\n-1 2 0\n-2 3 0\n-3 4 0\n"
  in
  let s = Solver.create f in
  (match Solver.solve s with
  | Solver.Sat m -> Alcotest.(check bool) "model" true (Array.for_all Fun.id m)
  | _ -> Alcotest.fail "expected SAT");
  Alcotest.(check int) "one decision at most" 0 (Solver.stats s).Solver.decisions

let pigeonhole ~holes =
  (* PHP(holes+1, holes): unsatisfiable, standard CDCL stress test.
     var p_{i,j} = pigeon i in hole j, i in [0..holes], j in [0..holes-1] *)
  let np = holes + 1 in
  let var i j = (i * holes) + j in
  let clauses = ref [] in
  for i = 0 to np - 1 do
    clauses := Sat.Clause.make (List.init holes (fun j -> Sat.Lit.pos (var i j))) :: !clauses
  done;
  for j = 0 to holes - 1 do
    for i1 = 0 to np - 1 do
      for i2 = i1 + 1 to np - 1 do
        clauses :=
          Sat.Clause.make [ Sat.Lit.neg_of (var i1 j); Sat.Lit.neg_of (var i2 j) ] :: !clauses
      done
    done
  done;
  Sat.Cnf.make ~num_vars:(np * holes) !clauses

let pigeonhole_unsat () =
  List.iter
    (fun holes ->
      Alcotest.(check bool)
        (Printf.sprintf "php %d unsat" holes)
        true
        (solve_with Config.minisat_like (pigeonhole ~holes) = Solver.Unsat))
    [ 2; 3; 4; 5 ]

let pigeonhole_unsat_chb () =
  Alcotest.(check bool) "php 4 unsat with CHB" true
    (solve_with Config.kissat_like (pigeonhole ~holes:4) = Solver.Unsat)

let agrees_with_brute config name =
  QCheck.Test.make ~name ~count:300 Testutil.small_cnf_arb (fun f ->
      let expected = Oracle.Brute.solve f <> None in
      match solve_with config f with
      | Solver.Sat m -> expected && Testutil.check_model f m
      | Solver.Unsat -> not expected
      | Solver.Unknown _ -> false)

let budget_returns_unknown () =
  let r = Testutil.rng 7 in
  (* a hard-ish random instance at the phase-transition ratio *)
  let f = Testutil.random_cnf r ~n:60 ~m:256 ~k:3 in
  let s = Solver.create f in
  match Solver.solve ~max_conflicts:1 s with
  | Solver.Unknown _ | Solver.Sat _ | Solver.Unsat -> (
      (* resume must reach a definite answer *)
      match Solver.solve s with
      | Solver.Sat m -> Alcotest.(check bool) "model" true (Testutil.check_model f m)
      | Solver.Unsat -> ()
      | Solver.Unknown _ -> Alcotest.fail "unbudgeted resume returned Unknown")

let step_equivalent_to_solve () =
  let r = Testutil.rng 11 in
  for _ = 1 to 20 do
    let f = Testutil.random_cnf r ~n:12 ~m:50 ~k:3 in
    let s = Solver.create f in
    let rec drive () =
      match Solver.step s with
      | `Continue -> drive ()
      | `Sat m -> Solver.Sat m
      | `Unsat -> Solver.Unsat
      | `Unsat_assumptions -> Alcotest.fail "no assumptions installed"
    in
    let via_step = drive () in
    let expected = Oracle.Brute.solve f <> None in
    (match via_step with
    | Solver.Sat m ->
        Alcotest.(check bool) "step model" true (Testutil.check_model f m);
        Alcotest.(check bool) "step sat agrees" true expected
    | Solver.Unsat -> Alcotest.(check bool) "step unsat agrees" false expected
    | Solver.Unknown _ -> Alcotest.fail "step cannot be unknown");
    (* after a decision, further steps keep returning the same answer *)
    match (Solver.step s, via_step) with
    | `Sat _, Solver.Sat _ | `Unsat, Solver.Unsat -> ()
    | (`Continue | `Sat _ | `Unsat | `Unsat_assumptions), _ ->
        Alcotest.fail "terminal state not sticky"
  done

let polarity_hint_respected () =
  (* both polarities satisfiable: the hint should pick the branch *)
  let f = Sat.Dimacs.parse_string "p cnf 2 1\n1 2 0\n" in
  let s = Solver.create f in
  Solver.set_polarity s 0 true;
  Solver.set_polarity s 1 true;
  match Solver.solve s with
  | Solver.Sat m ->
      Alcotest.(check bool) "hinted var true" true (m.(0) || m.(1));
      Alcotest.(check bool) "first decision respects hint" true m.(0)
  | _ -> Alcotest.fail "expected SAT"

let prioritize_vars_first () =
  (* x17 = false and x3 = false each fail in one propagation (through x0 and
     x1), and a decision without random polarity assigns false: deciding
     either learns it true as a root unit, so the order of the root units
     is the order of the decisions.  Deciding x0 or x1 first would
     propagate x17 or x3 instead, learning nothing *)
  let f =
    Sat.Cnf.make ~num_vars:20
      (List.map Sat.Clause.of_dimacs [ [ 18; 1 ]; [ 18; -1 ]; [ 4; 2 ]; [ 4; -2 ] ])
  in
  let s = Solver.create ~config:Cdcl.Config.kissat_like f in
  Solver.prioritize_vars s [ 17; 3 ];
  for _ = 1 to 4 do
    ignore (Solver.step s)
  done;
  match Solver.export_learnts s with
  | [| u1 |] :: [| u2 |] :: _ ->
      Alcotest.(check int) "first priority var" (Sat.Lit.pos 17) u1;
      Alcotest.(check int) "second priority var" (Sat.Lit.pos 3) u2
  | _ -> Alcotest.fail "expected two decisions"

let clause_activity_grows () =
  let f = pigeonhole ~holes:4 in
  (* the per-clause counters are gated: consumers must opt in *)
  let s = Solver.create ~config:(Config.with_paper_stats Config.default) f in
  ignore (Solver.solve s);
  let any_bumped = ref false in
  for i = 0 to Sat.Cnf.num_clauses f - 1 do
    if Solver.clause_activity s i > 1.0 then any_bumped := true
  done;
  Alcotest.(check bool) "some clause score bumped" true !any_bumped;
  let total_confl_visits = ref 0 and total_prop_visits = ref 0 in
  for i = 0 to Sat.Cnf.num_clauses f - 1 do
    let p, c = Solver.clause_visits s i in
    total_prop_visits := !total_prop_visits + p;
    total_confl_visits := !total_confl_visits + c
  done;
  Alcotest.(check bool) "propagation visits recorded" true (!total_prop_visits > 0);
  Alcotest.(check bool) "conflict visits recorded" true (!total_confl_visits > 0)

let stats_consistency () =
  let r = Testutil.rng 23 in
  let f = Testutil.random_cnf r ~n:40 ~m:170 ~k:3 in
  let s = Solver.create f in
  ignore (Solver.solve s);
  let st = Solver.stats s in
  Alcotest.(check bool) "iterations >= decisions + conflicts" true
    (st.Solver.iterations >= st.Solver.decisions && st.Solver.iterations >= st.Solver.conflicts);
  Alcotest.(check bool) "learnt literals >= learnt clauses" true
    (st.Solver.learnt_literals >= st.Solver.learnt_clauses)

let duplicate_and_tautology_clauses () =
  let f =
    Sat.Cnf.make ~num_vars:3
      [
        Sat.Clause.of_dimacs [ 1; -1 ];
        (* tautology *)
        Sat.Clause.of_dimacs [ 1; 2 ];
        Sat.Clause.of_dimacs [ 1; 2 ];
        (* duplicate *)
        Sat.Clause.of_dimacs [ -2; 3 ];
      ]
  in
  match solve_with Config.minisat_like f with
  | Solver.Sat m -> Alcotest.(check bool) "model" true (Testutil.check_model f m)
  | _ -> Alcotest.fail "expected SAT"

(* ---- assumptions / incremental interface ---- *)

let assumptions_basic () =
  let f = Sat.Dimacs.parse_string "p cnf 3 2\n1 2 0\n-2 3 0\n" in
  let s = Solver.create f in
  (* force x1 false: x2 must be true, then x3 *)
  (match Solver.solve_with_assumptions s [ Sat.Lit.neg_of 0 ] with
  | `Sat m ->
      Alcotest.(check bool) "x1 false" false m.(0);
      Alcotest.(check bool) "x2 true" true m.(1);
      Alcotest.(check bool) "x3 true" true m.(2)
  | _ -> Alcotest.fail "expected SAT under assumptions");
  (* contradictory assumptions *)
  (match Solver.solve_with_assumptions s [ Sat.Lit.pos 0; Sat.Lit.neg_of 0 ] with
  | `Unsat_assumptions -> ()
  | _ -> Alcotest.fail "expected unsat under assumptions");
  (* the solver stays usable: plain solve still finds a model *)
  match Solver.solve s with
  | Solver.Sat m -> Alcotest.(check bool) "reusable" true (Testutil.check_model f m)
  | _ -> Alcotest.fail "solver not reusable after assumption conflict"

let assumptions_propagated_conflict () =
  (* x1 -> x2; assuming x1 and ¬x2 is inconsistent via propagation *)
  let f = Sat.Dimacs.parse_string "p cnf 2 1\n-1 2 0\n" in
  let s = Solver.create f in
  match Solver.solve_with_assumptions s [ Sat.Lit.pos 0; Sat.Lit.neg_of 1 ] with
  | `Unsat_assumptions -> ()
  | `Sat _ -> Alcotest.fail "inconsistent assumptions satisfied"
  | _ -> Alcotest.fail "unexpected result"

let assumptions_agree_with_units =
  QCheck.Test.make ~name:"assumptions equivalent to unit clauses" ~count:100
    (QCheck.pair Testutil.small_cnf_arb (QCheck.int_bound 1000))
    (fun (f, seed) ->
      let r = Testutil.rng seed in
      let n = Sat.Cnf.num_vars f in
      let k = 1 + Stats.Rng.int r (min 3 n) in
      let assumed =
        List.map
          (fun v -> Sat.Lit.make v (Stats.Rng.bool r))
          (Stats.Rng.sample_without_replacement r k n)
      in
      let s = Solver.create f in
      let via_assumptions = Solver.solve_with_assumptions s assumed in
      let with_units =
        Sat.Cnf.append f (List.map (fun l -> Sat.Clause.make [ l ]) assumed)
      in
      let expected = Oracle.Brute.solve with_units <> None in
      match via_assumptions with
      | `Sat m ->
          expected
          && Testutil.check_model f m
          && List.for_all
               (fun l -> if Sat.Lit.is_pos l then m.(Sat.Lit.var l) else not m.(Sat.Lit.var l))
               assumed
      | `Unsat | `Unsat_assumptions -> not expected
      | `Unknown -> false)

(* ---- DPLL and WalkSAT baselines ---- *)

let dpll_agrees_with_brute =
  QCheck.Test.make ~name:"dpll agrees with brute force" ~count:150 Testutil.small_cnf_arb
    (fun f ->
      let expected = Oracle.Brute.solve f <> None in
      match Oracle.Dpll.solve f with
      | Cdcl.Solver.Sat m, _ -> expected && Testutil.check_model f m
      | Cdcl.Solver.Unsat, _ -> not expected
      | Cdcl.Solver.Unknown _, _ -> false)

let dpll_budget () =
  let r = Testutil.rng 301 in
  let f = Testutil.random_cnf r ~n:40 ~m:170 ~k:3 in
  match Oracle.Dpll.solve ~max_decisions:1 f with
  | Cdcl.Solver.Unknown _, st ->
      Alcotest.(check bool) "counted" true (st.Oracle.Dpll.decisions >= 1)
  | (Cdcl.Solver.Sat _ | Cdcl.Solver.Unsat), _ -> () (* solved by propagation alone *)

let cdcl_beats_dpll_on_structure () =
  (* pigeonhole: clause learning prunes symmetric subtrees that DPLL revisits *)
  let f = pigeonhole ~holes:4 in
  let s = Solver.create f in
  ignore (Solver.solve s);
  let cdcl_decisions = (Solver.stats s).Solver.decisions in
  match Oracle.Dpll.solve f with
  | Cdcl.Solver.Unsat, st ->
      Alcotest.(check bool) "fewer decisions with learning" true
        (cdcl_decisions < st.Oracle.Dpll.decisions)
  | _ -> Alcotest.fail "php unsat"

let walksat_finds_planted_models () =
  let r = Testutil.rng 302 in
  for _ = 1 to 5 do
    let f = Workload.Uniform.generate r ~num_vars:30 ~num_clauses:100 in
    match Cdcl.Walksat.solve r f with
    | Some m, _ -> Alcotest.(check bool) "model valid" true (Testutil.check_model f m)
    | None, _ -> Alcotest.fail "walksat failed on an easy planted instance"
  done

let walksat_inconclusive_on_unsat () =
  let f = Sat.Dimacs.parse_string "p cnf 1 2\n1 0\n-1 0\n" in
  let r = Testutil.rng 303 in
  match Cdcl.Walksat.solve ~max_flips:100 ~restarts:2 r f with
  | None, st ->
      Alcotest.(check bool) "flips counted" true (st.Cdcl.Walksat.flips > 0);
      Alcotest.(check int) "restarts" 2 st.Cdcl.Walksat.restarts_used
  | Some _, _ -> Alcotest.fail "found a model of an unsat formula"

let suite =
  [
    ("cdcl.vec", [ Alcotest.test_case "basics" `Quick vec_basics ]);
    ( "cdcl.assumptions",
      [
        Alcotest.test_case "basic + reuse" `Quick assumptions_basic;
        Alcotest.test_case "propagated conflict" `Quick assumptions_propagated_conflict;
        QCheck_alcotest.to_alcotest assumptions_agree_with_units;
      ] );
    ( "cdcl.baselines",
      [
        QCheck_alcotest.to_alcotest dpll_agrees_with_brute;
        Alcotest.test_case "dpll budget" `Quick dpll_budget;
        Alcotest.test_case "cdcl beats dpll" `Quick cdcl_beats_dpll_on_structure;
        Alcotest.test_case "walksat planted" `Quick walksat_finds_planted_models;
        Alcotest.test_case "walksat unsat inconclusive" `Quick walksat_inconclusive_on_unsat;
      ] );
    ( "cdcl.heap",
      [
        Alcotest.test_case "orders by activity" `Quick heap_orders_by_activity;
        Alcotest.test_case "notify increase" `Quick heap_notify_increase;
        Alcotest.test_case "reinsert" `Quick heap_reinsert;
      ] );
    ("cdcl.luby", [ Alcotest.test_case "prefix" `Quick luby_prefix ]);
    ( "cdcl.solver",
      [
        Alcotest.test_case "trivial sat" `Quick trivial_sat;
        Alcotest.test_case "trivial unsat" `Quick trivial_unsat;
        Alcotest.test_case "empty clause" `Quick empty_clause_unsat;
        Alcotest.test_case "empty formula" `Quick empty_formula_sat;
        Alcotest.test_case "unit propagation only" `Quick unit_propagation_only;
        Alcotest.test_case "pigeonhole unsat (vsids)" `Quick pigeonhole_unsat;
        Alcotest.test_case "pigeonhole unsat (chb)" `Quick pigeonhole_unsat_chb;
        Alcotest.test_case "budget returns + resume" `Quick budget_returns_unknown;
        Alcotest.test_case "step == solve" `Quick step_equivalent_to_solve;
        Alcotest.test_case "duplicate/tautology input" `Quick duplicate_and_tautology_clauses;
        QCheck_alcotest.to_alcotest (agrees_with_brute Config.minisat_like "vsids agrees with brute force");
        QCheck_alcotest.to_alcotest (agrees_with_brute Config.kissat_like "chb agrees with brute force");
      ] );
    ( "cdcl.hooks",
      [
        Alcotest.test_case "polarity hints" `Quick polarity_hint_respected;
        Alcotest.test_case "prioritized decisions" `Quick prioritize_vars_first;
        Alcotest.test_case "clause activity instrumentation" `Quick clause_activity_grows;
        Alcotest.test_case "stats consistency" `Quick stats_consistency;
      ] );
  ]
