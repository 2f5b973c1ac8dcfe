(* Weighted MaxSAT: WDIMACS round-trips, and the exact optimisers checked
   differentially against brute-force enumeration. *)

(* random weighted instance: a handful of hard clauses (sometimes
   unsatisfiable together) plus weighted softs *)
let random_wcnf r ~n ~hard ~soft =
  let clause () = Testutil.random_clause r ~n ~k:(min 3 n) in
  Sat.Wcnf.make ~num_vars:n
    ~hard:(List.init hard (fun _ -> clause ()))
    ~soft:(List.init soft (fun _ -> (1 + Stats.Rng.int r 8, clause ())))

let wcnf_gen =
  QCheck.Gen.(
    int_range 2 10 >>= fun n ->
    int_range 0 n >>= fun hard ->
    int_range 1 (2 * n) >>= fun soft ->
    int_bound 1_000_000 >>= fun seed ->
    return (random_wcnf (Testutil.rng (seed + (n * 131) + hard + (soft * 17))) ~n ~hard ~soft))

let wcnf_arb =
  QCheck.make ~print:(fun w -> Sat.Wcnf.to_string w) wcnf_gen

(* ---- WDIMACS ---- *)

let roundtrip_classic =
  QCheck.Test.make ~name:"wdimacs classic round-trip" ~count:100 wcnf_arb (fun w ->
      w = Sat.Wcnf.parse_string (Sat.Wcnf.to_string w))

let roundtrip_2022 =
  QCheck.Test.make ~name:"wdimacs 2022 round-trip (modulo trailing vars)" ~count:100
    wcnf_arb (fun w ->
      let w2 = Sat.Wcnf.parse_string (Sat.Wcnf.to_string ~format:`Std2022 w) in
      (* the headerless format recovers num_vars as the largest literal *)
      Sat.Wcnf.num_vars w2 <= Sat.Wcnf.num_vars w
      && List.equal
           (fun c1 c2 -> Sat.Clause.equal c1 c2)
           (Array.to_list w.Sat.Wcnf.hard)
           (Array.to_list w2.Sat.Wcnf.hard)
      && List.equal
           (fun (w1, c1) (w2, c2) -> w1 = w2 && Sat.Clause.equal c1 c2)
           (Sat.Wcnf.soft_clauses w) (Sat.Wcnf.soft_clauses w2))

let parse_formats () =
  (* classic 4-field header: weight >= top is hard *)
  let w = Sat.Wcnf.parse_string "c comment\np wcnf 3 3 10\n10 1 2 0\n3 -1 0\n2 -2 3 0\n" in
  Alcotest.(check int) "hard" 1 (Sat.Wcnf.num_hard w);
  Alcotest.(check int) "soft" 2 (Sat.Wcnf.num_soft w);
  Alcotest.(check int) "sum" 5 (Sat.Wcnf.sum_weights w);
  (* 2022 headerless h-prefix dialect *)
  let w2 = Sat.Wcnf.parse_string "c 2022\nh 1 2 0\n3 -1 0\n2 -2 3 0\n" in
  Alcotest.(check int) "2022 hard" 1 (Sat.Wcnf.num_hard w2);
  Alcotest.(check int) "2022 soft" 2 (Sat.Wcnf.num_soft w2);
  Alcotest.(check int) "2022 vars" 3 (Sat.Wcnf.num_vars w2);
  (* 3-field header: every clause is weight-prefixed soft *)
  let w3 = Sat.Wcnf.parse_string "p wcnf 2 2\n3 1 0\n2 -1 2 0\n" in
  Alcotest.(check int) "3-field soft" 2 (Sat.Wcnf.num_soft w3);
  Alcotest.(check int) "3-field sum" 5 (Sat.Wcnf.sum_weights w3);
  (* costs *)
  let cost = Sat.Wcnf.cost w [| false; false; false |] in
  Alcotest.(check int) "cost of 000" 0 cost;
  Alcotest.(check bool) "000 falsifies hard" false
    (Sat.Wcnf.hard_satisfied w [| false; false; false |])

let parse_rejects () =
  let bad s = try ignore (Sat.Wcnf.parse_string s); false with Sat.Wcnf.Parse_error _ -> true in
  Alcotest.(check bool) "unterminated" true (bad "p wcnf 2 1 5\n3 1 2");
  Alcotest.(check bool) "bad count" true (bad "p wcnf 2 2 5\n3 1 0\n");
  Alcotest.(check bool) "cnf header" true (bad "p cnf 2 1\n1 2 0\n");
  Alcotest.(check bool) "weight 0" true (bad "p wcnf 2 1 5\n0 1 2 0\n")

(* summed weight near max_int would overflow [top] and silently flip
   hard/soft classification — construction and parsing both refuse it *)
let weight_overflow_rejected () =
  let big = max_int / 2 in
  let c = Sat.Clause.of_dimacs [ 1 ] in
  (* two halves sum to max_int - 1: top = max_int, still representable *)
  let w2 = Sat.Wcnf.make ~num_vars:1 ~hard:[] ~soft:[ (big, c); (big, c) ] in
  Alcotest.(check int) "top at the limit" max_int (Sat.Wcnf.top w2);
  (try
     ignore (Sat.Wcnf.make ~num_vars:1 ~hard:[] ~soft:[ (big, c); (big, c); (big, c) ]);
     Alcotest.fail "overflowing make accepted"
   with Invalid_argument _ -> ());
  let doc = Printf.sprintf "p wcnf 1 3\n%d 1 0\n%d 1 0\n%d 1 0\n" big big big in
  match Sat.Wcnf.parse_string doc with
  | _ -> Alcotest.fail "overflowing parse accepted"
  | exception Sat.Wcnf.Parse_error _ -> ()

(* ---- exact optimisation, differentially vs brute force ---- *)

let brute_agrees algorithm name =
  QCheck.Test.make ~name ~count:60 wcnf_arb (fun w ->
      let r = Hyqsat.Optimize.solve ~algorithm w in
      match Oracle.Brute.min_cost w with
      | None -> r.Hyqsat.Optimize.status = Hyqsat.Optimize.Infeasible
      | Some (opt, _) -> (
          r.Hyqsat.Optimize.status = Hyqsat.Optimize.Optimal
          && r.Hyqsat.Optimize.best_cost = opt
          && r.Hyqsat.Optimize.lower_bound = opt
          &&
          match r.Hyqsat.Optimize.best with
          | None -> false
          | Some x -> Sat.Wcnf.hard_satisfied w x && Sat.Wcnf.cost w x = opt))

let linear_matches_brute = brute_agrees Hyqsat.Optimize.Linear "linear search = brute optimum"

let core_guided_matches_brute =
  brute_agrees Hyqsat.Optimize.Core_guided "core-guided = brute optimum"

let algorithms_agree =
  QCheck.Test.make ~name:"linear and core-guided agree" ~count:40 wcnf_arb (fun w ->
      let a = Hyqsat.Optimize.solve ~algorithm:Hyqsat.Optimize.Linear w in
      let b = Hyqsat.Optimize.solve ~algorithm:Hyqsat.Optimize.Core_guided w in
      a.Hyqsat.Optimize.status = b.Hyqsat.Optimize.status
      && a.Hyqsat.Optimize.best_cost = b.Hyqsat.Optimize.best_cost
      && a.Hyqsat.Optimize.lower_bound = b.Hyqsat.Optimize.lower_bound)

let incumbent_bounds =
  QCheck.Test.make ~name:"incumbent is a valid penalised upper bound" ~count:60 wcnf_arb
    (fun w ->
      let cost, x = Hyqsat.Optimize.incumbent ~max_flips:400 (Testutil.rng 11) w in
      let recomputed =
        Sat.Wcnf.cost w x
        + Sat.Wcnf.top w
          * Array.fold_left
              (fun acc c ->
                if Sat.Assignment.satisfies_clause x c then acc
                else acc + 1)
              0 w.Sat.Wcnf.hard
      in
      cost = recomputed)

let gap_limit_stops () =
  (* 1 soft pair of contradictory units: optimum 1; gap_limit 1 accepts any model *)
  let w =
    Sat.Wcnf.make ~num_vars:1 ~hard:[]
      ~soft:[ (1, Sat.Clause.make [ Sat.Lit.pos 0 ]); (1, Sat.Clause.make [ Sat.Lit.neg_of 0 ]) ]
  in
  let r = Hyqsat.Optimize.solve ~gap_limit:1 w in
  Alcotest.(check bool) "stopped within gap" true
    (r.Hyqsat.Optimize.best_cost - r.Hyqsat.Optimize.lower_bound <= 1);
  let r0 = Hyqsat.Optimize.solve w in
  Alcotest.(check int) "exact optimum" 1 r0.Hyqsat.Optimize.best_cost;
  Alcotest.(check bool) "optimal" true (r0.Hyqsat.Optimize.status = Hyqsat.Optimize.Optimal)

let infeasible_hard () =
  let w =
    Sat.Wcnf.make ~num_vars:1
      ~hard:[ Sat.Clause.make [ Sat.Lit.pos 0 ]; Sat.Clause.make [ Sat.Lit.neg_of 0 ] ]
      ~soft:[ (3, Sat.Clause.make [ Sat.Lit.pos 0 ]) ]
  in
  List.iter
    (fun alg ->
      let r = Hyqsat.Optimize.solve ~algorithm:alg w in
      Alcotest.(check bool) "infeasible" true
        (r.Hyqsat.Optimize.status = Hyqsat.Optimize.Infeasible))
    [ Hyqsat.Optimize.Linear; Hyqsat.Optimize.Core_guided ]

let certify_opt_passes =
  QCheck.Test.make ~name:"certify_opt certifies both exact algorithms" ~count:40 wcnf_arb
    (fun w ->
      List.for_all
        (fun alg ->
          let r = Hyqsat.Optimize.solve ~algorithm:alg w in
          match Check.Certify.certify_opt ~original:w r with
          | Ok (Check.Certify.Optimality_verified c) -> c = r.Hyqsat.Optimize.best_cost
          | Ok Check.Certify.Infeasibility_verified ->
              r.Hyqsat.Optimize.status = Hyqsat.Optimize.Infeasible
          | Ok (Check.Certify.Cost_verified _) -> false (* exact modes must close the gap *)
          | Error _ -> false)
        [ Hyqsat.Optimize.Linear; Hyqsat.Optimize.Core_guided ])

(* the REVIEW regression: WDIMACS-realistic weights (millions).  The old
   unary counters in both the linear search and the certificate would
   allocate O(sum_weights) literals here; the adder encoding solves and
   certifies instantly *)
let large_weights_solve_and_certify () =
  let w =
    Sat.Wcnf.make ~num_vars:2
      ~hard:[ Sat.Clause.of_dimacs [ 1; 2 ] ]
      ~soft:
        [
          (1_000_000, Sat.Clause.of_dimacs [ -1 ]);
          (2_500_000, Sat.Clause.of_dimacs [ -2 ]);
          (4_000_000, Sat.Clause.of_dimacs [ 1; -2 ]);
        ]
  in
  List.iter
    (fun alg ->
      let r = Hyqsat.Optimize.solve ~algorithm:alg w in
      Alcotest.(check bool) "optimal" true
        (r.Hyqsat.Optimize.status = Hyqsat.Optimize.Optimal);
      Alcotest.(check int) "optimum" 1_000_000 r.Hyqsat.Optimize.best_cost;
      match Check.Certify.certify_opt ~original:w r with
      | Ok (Check.Certify.Optimality_verified c) ->
          Alcotest.(check int) "certified cost" 1_000_000 c
      | v -> Alcotest.failf "unexpected verdict: %s" (Check.Certify.opt_verdict_label v))
    [ Hyqsat.Optimize.Linear; Hyqsat.Optimize.Core_guided ]

(* the seeding phase must honour the cancel switch: with an always-open
   optimum (contradictory unit softs) the walk would otherwise burn the
   whole flip budget *)
let incumbent_honours_stop () =
  let w =
    Sat.Wcnf.make ~num_vars:1 ~hard:[]
      ~soft:[ (1, Sat.Clause.make [ Sat.Lit.pos 0 ]); (1, Sat.Clause.make [ Sat.Lit.neg_of 0 ]) ]
  in
  let polls = ref 0 in
  let stop () =
    incr polls;
    !polls > 5
  in
  let cost, _ = Hyqsat.Optimize.incumbent ~max_flips:1_000_000 ~should_stop:stop (Testutil.rng 7) w in
  Alcotest.(check bool) "stopped after a handful of polls" true (!polls <= 7);
  Alcotest.(check int) "best-so-far still returned" 1 cost

(* ---- incumbent seeding: WalkSAT first, the annealer only as a fallback ---- *)

let graph_2000q = lazy (Chimera.Graph.standard_2000q ())

(* the graph only matters when WalkSAT's model violates a hard clause; when
   it does not, the whole answer is the graph-free one, model included —
   the annealer was skipped and WalkSAT drew first from the fresh stream *)
let annealer_only_as_fallback =
  QCheck.Test.make ~name:"annealer skipped after a hard-feasible WalkSAT incumbent"
    ~count:40 (QCheck.pair wcnf_arb QCheck.small_nat) (fun (w, s) ->
      let open Hyqsat.Optimize in
      let a = solve ~rng:(Testutil.rng s) ~graph:(Lazy.force graph_2000q) w in
      let b = solve ~rng:(Testutil.rng s) w in
      a.status = b.status && a.best_cost = b.best_cost && a.lower_bound = b.lower_bound
      && a.cdcl_calls = b.cdcl_calls
      && ((not (Sat.Wcnf.hard_satisfied w (snd (incumbent (Testutil.rng s) w))))
         || a.best = b.best))

(* with no flips WalkSAT returns its random start, which for seed 1 breaks
   a hard clause: the annealer's model must seed the exact search *)
let fallback_reaches_optimum () =
  let open Hyqsat.Optimize in
  let w =
    Sat.Wcnf.parse_string
      "p wcnf 3 6 20\n20 1 2 0\n20 -1 3 0\n20 2 -3 0\n3 -1 0\n2 -2 0\n4 -3 0\n"
  in
  let g = Lazy.force graph_2000q in
  let rng = Testutil.rng 1 in
  let _, walk = incumbent ~max_flips:0 rng w in
  Alcotest.(check bool) "WalkSAT incumbent breaks a hard clause" false
    (Sat.Wcnf.hard_satisfied w walk);
  (match anneal_incumbent rng g w with
  | Some (_, x) ->
      Alcotest.(check bool) "annealer supplies a hard-feasible seed" true
        (Sat.Wcnf.hard_satisfied w x)
  | None -> Alcotest.fail "nothing embedded");
  let r = solve ~max_flips:0 ~rng:(Testutil.rng 1) ~graph:g w in
  match Oracle.Brute.min_cost w with
  | None -> Alcotest.fail "instance should be feasible"
  | Some (opt, _) ->
      Alcotest.(check bool) "optimal" true (r.status = Optimal);
      Alcotest.(check int) "brute optimum" opt r.best_cost;
      Alcotest.(check int) "bound closes" opt r.lower_bound

let certify_opt_rejects_tampering () =
  let w =
    Sat.Wcnf.make ~num_vars:2 ~hard:[ Sat.Clause.make [ Sat.Lit.pos 0 ] ]
      ~soft:
        [
          (2, Sat.Clause.make [ Sat.Lit.neg_of 0 ]);
          (1, Sat.Clause.make [ Sat.Lit.pos 1 ]);
        ]
  in
  let r = Hyqsat.Optimize.solve w in
  Alcotest.(check int) "optimum" 2 r.Hyqsat.Optimize.best_cost;
  (* claim a better cost than the model achieves *)
  let forged = { r with Hyqsat.Optimize.best_cost = 1; lower_bound = 1 } in
  (match Check.Certify.certify_opt ~original:w forged with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forged cost certified");
  (* claim optimality at a cost that a cheaper model beats *)
  let lazy_claim =
    { r with Hyqsat.Optimize.best = Some [| true; false |]; best_cost = 3; lower_bound = 3 }
  in
  match Check.Certify.certify_opt ~original:w lazy_claim with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-optimal claim certified"

let suite =
  [
    ( "sat.wcnf",
      [
        QCheck_alcotest.to_alcotest roundtrip_classic;
        QCheck_alcotest.to_alcotest roundtrip_2022;
        Alcotest.test_case "parse formats" `Quick parse_formats;
        Alcotest.test_case "parse rejects" `Quick parse_rejects;
        Alcotest.test_case "weight overflow rejected" `Quick weight_overflow_rejected;
      ] );
    ( "hyqsat.optimize",
      [
        QCheck_alcotest.to_alcotest linear_matches_brute;
        QCheck_alcotest.to_alcotest core_guided_matches_brute;
        QCheck_alcotest.to_alcotest algorithms_agree;
        QCheck_alcotest.to_alcotest incumbent_bounds;
        Alcotest.test_case "gap limit" `Quick gap_limit_stops;
        Alcotest.test_case "infeasible hard" `Quick infeasible_hard;
        QCheck_alcotest.to_alcotest certify_opt_passes;
        Alcotest.test_case "large weights solve+certify" `Quick
          large_weights_solve_and_certify;
        Alcotest.test_case "incumbent honours should_stop" `Quick incumbent_honours_stop;
        Alcotest.test_case "certify_opt rejects tampering" `Quick certify_opt_rejects_tampering;
        QCheck_alcotest.to_alcotest annealer_only_as_fallback;
        Alcotest.test_case "annealer fallback reaches the optimum" `Quick
          fallback_reaches_optimum;
      ] );
  ]
