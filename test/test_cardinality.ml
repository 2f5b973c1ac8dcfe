(* Tests for cardinality constraints and exact MAX-SAT. *)

module Card = Sat.Cardinality

(* semantic check: the encoding (with registers existential) accepts exactly
   the base assignments with at most one true literal *)
let at_most_one_semantics =
  QCheck.Test.make ~name:"at_most_one accepts exactly counts <= 1" ~count:60
    QCheck.(pair (int_range 0 6) (int_bound 1000))
    (fun (n, seed) ->
      let r = Testutil.rng (seed + (n * 17)) in
      let lits = List.init n (fun v -> Sat.Lit.make v (Stats.Rng.bool r)) in
      let enc = Card.at_most_one ~num_vars:n lits in
      let ok = ref true in
      for bits = 0 to (1 lsl n) - 1 do
        let units =
          List.init n (fun v ->
              Sat.Clause.make
                [ (if bits land (1 lsl v) <> 0 then Sat.Lit.pos v else Sat.Lit.neg_of v) ])
        in
        let count =
          List.fold_left
            (fun acc l ->
              let v = bits land (1 lsl Sat.Lit.var l) <> 0 in
              if (if Sat.Lit.is_pos l then v else not v) then acc + 1 else acc)
            0 lits
        in
        let f = Sat.Cnf.make ~num_vars:enc.Card.num_vars (units @ enc.Card.clauses) in
        if Oracle.Brute.solve ~limit_vars:24 f <> None <> (count <= 1) then ok := false
      done;
      !ok)

(* semantic check for the weighted adder encoding: fix the base literals
   with unit clauses and ask a CDCL solver (the adder's auxiliaries are
   functionally determined by propagation, so brute enumeration over them
   is unnecessary) whether the bound admits the assignment *)
let at_most_weight_semantics =
  QCheck.Test.make ~name:"at_most_weight accepts exactly weighted sums <= k" ~count:60
    QCheck.(triple (int_range 1 5) (int_bound 60) (int_bound 1000))
    (fun (n, k, seed) ->
      let r = Testutil.rng (seed + (n * 23) + k) in
      let wlits =
        List.init n (fun v -> (Stats.Rng.int r 20, Sat.Lit.make v (Stats.Rng.bool r)))
      in
      let enc = Card.at_most_weight ~num_vars:n wlits ~k in
      let ok = ref true in
      for bits = 0 to (1 lsl n) - 1 do
        let units =
          List.init n (fun v ->
              Sat.Clause.make
                [ (if bits land (1 lsl v) <> 0 then Sat.Lit.pos v else Sat.Lit.neg_of v) ])
        in
        let f = Sat.Cnf.make ~num_vars:enc.Card.num_vars (units @ enc.Card.clauses) in
        let total =
          List.fold_left
            (fun acc (wt, l) ->
              let v = bits land (1 lsl Sat.Lit.var l) <> 0 in
              if (if Sat.Lit.is_pos l then v else not v) then acc + wt else acc)
            0 wlits
        in
        let sat =
          match Cdcl.Solver.solve (Cdcl.Solver.create f) with
          | Cdcl.Solver.Sat _ -> true
          | _ -> false
        in
        if sat <> (total <= k) then ok := false
      done;
      !ok)

(* weights in the millions stay O(log) in encoding size — the regression
   that motivated the adder: a unary expansion would allocate O(sum) *)
let at_most_weight_large_weights () =
  let wlits =
    [ (1_000_000, Sat.Lit.pos 0); (2_000_000, Sat.Lit.pos 1); (4_000_000, Sat.Lit.pos 2) ]
  in
  let enc = Card.at_most_weight ~num_vars:3 wlits ~k:5_000_000 in
  Alcotest.(check bool) "compact" true (enc.Card.num_vars < 200);
  for bits = 0 to 7 do
    let units =
      List.init 3 (fun v ->
          Sat.Clause.make
            [ (if bits land (1 lsl v) <> 0 then Sat.Lit.pos v else Sat.Lit.neg_of v) ])
    in
    let f = Sat.Cnf.make ~num_vars:enc.Card.num_vars (units @ enc.Card.clauses) in
    let total =
      List.fold_left
        (fun acc (wt, l) ->
          if bits land (1 lsl Sat.Lit.var l) <> 0 then acc + wt else acc)
        0 wlits
    in
    let sat =
      match Cdcl.Solver.solve (Cdcl.Solver.create f) with
      | Cdcl.Solver.Sat _ -> true
      | _ -> false
    in
    Alcotest.(check bool) (Printf.sprintf "bits=%d" bits) (total <= 5_000_000) sat
  done

let exact_maxsat_matches_brute =
  QCheck.Test.make ~name:"exact maxsat equals brute optimum" ~count:40
    (QCheck.make
       QCheck.Gen.(
         int_range 3 8 >>= fun n ->
         int_range 3 25 >>= fun m ->
         int_bound 100000 >>= fun seed ->
         return (Testutil.random_cnf (Testutil.rng (seed + n + (m * 31))) ~n ~m ~k:3)))
    (fun f ->
      let open Hyqsat.Optimize in
      let r = solve ~algorithm:Linear (Sat.Wcnf.of_cnf f) in
      match r.best with
      | None -> false
      | Some x ->
          r.status = Optimal
          && r.best_cost = r.lower_bound
          && r.best_cost = Oracle.Brute.min_unsatisfied f
          && Oracle.Partial.num_unsatisfied x f = r.best_cost)

let exact_maxsat_on_unsat_pair () =
  let f = Sat.Dimacs.parse_string "p cnf 1 2\n1 0\n-1 0\n" in
  let r = Hyqsat.Optimize.solve ~algorithm:Hyqsat.Optimize.Linear (Sat.Wcnf.of_cnf f) in
  Alcotest.(check int) "one violated" 1 r.Hyqsat.Optimize.best_cost

let suite =
  [
    ( "sat.cardinality",
      [
        QCheck_alcotest.to_alcotest at_most_one_semantics;
        QCheck_alcotest.to_alcotest at_most_weight_semantics;
        Alcotest.test_case "at_most_weight large weights" `Quick
          at_most_weight_large_weights;
      ] );
    ( "hyqsat.maxsat_exact",
      [
        QCheck_alcotest.to_alcotest exact_maxsat_matches_brute;
        Alcotest.test_case "unsat pair" `Quick exact_maxsat_on_unsat_pair;
      ] );
  ]
