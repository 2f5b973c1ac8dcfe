(* Tests for the QUBO encoding, including the paper's worked example. *)

module Pbq = Qubo.Pbq
module Encode = Qubo.Encode
module Normalize = Qubo.Normalize
module Adjust = Qubo.Adjust
module Gap = Baselines.Gap

let fcheck = Alcotest.(check (float 1e-9))

let pbq_basics () =
  let h = Pbq.create () in
  Pbq.add_const h 1.5;
  Pbq.add_linear h 0 2.0;
  Pbq.add_linear h 0 (-1.0);
  Pbq.add_quad h 1 0 3.0;
  fcheck "const" 1.5 (Pbq.const h);
  fcheck "linear merged" 1.0 (Pbq.linear h 0);
  fcheck "quad symmetric" 3.0 (Pbq.quad h 0 1);
  fcheck "quad symmetric rev" 3.0 (Pbq.quad h 1 0);
  Alcotest.(check (list int)) "vars" [ 0; 1 ] (Pbq.vars h);
  (* eval: 1.5 + 1*x0 + 3*x0x1 *)
  fcheck "eval 00" 1.5 (Pbq.eval h (Array.get [| false; false |]));
  fcheck "eval 10" 2.5 (Pbq.eval h (Array.get [| true; false |]));
  fcheck "eval 11" 5.5 (Pbq.eval h (Array.get [| true; true |]));
  (* cancellation removes the term *)
  Pbq.add_quad h 0 1 (-3.0);
  Alcotest.(check (list (pair int int))) "edge removed" [] (Pbq.edges h)

let pbq_add_scaled () =
  let a = Pbq.create () and b = Pbq.create () in
  Pbq.add_linear a 0 1.;
  Pbq.add_linear b 0 2.;
  Pbq.add_quad b 0 1 4.;
  Pbq.add_scaled a b 0.5;
  fcheck "linear sum" 2.0 (Pbq.linear a 0);
  fcheck "quad scaled" 2.0 (Pbq.quad a 0 1)

let pbq_diagonal_rejected () =
  let h = Pbq.create () in
  Alcotest.check_raises "diagonal" (Invalid_argument "Pbq.add_quad: diagonal term")
    (fun () -> Pbq.add_quad h 2 2 1.0)

(* H = 0 with optimal aux iff the clause set is satisfied: the core encoding
   soundness property (Equation 5). *)
let encoding_soundness =
  QCheck.Test.make ~name:"H=0 with optimal aux iff clauses satisfied" ~count:200
    (QCheck.make
       QCheck.Gen.(
         int_range 3 8 >>= fun n ->
         int_range 1 10 >>= fun m ->
         int_bound 100000 >>= fun seed ->
         return (Testutil.random_cnf (Testutil.rng (seed + (n * 131) + m)) ~n ~m ~k:3)))
    (fun f ->
      let enc = Encode.encode ~num_vars:(Sat.Cnf.num_vars f) (Sat.Cnf.clauses f) in
      let n = Sat.Cnf.num_vars f in
      let ok = ref true in
      for bits = 0 to (1 lsl n) - 1 do
        let x = Array.init n (fun v -> bits land (1 lsl v) <> 0) in
        let e = Baselines.Gap.min_energy_for enc x in
        let sat = Baselines.Gap.clauses_satisfied enc x in
        if sat && Float.abs e > 1e-9 then ok := false;
        if (not sat) && e < 0.5 then ok := false
      done;
      !ok)

(* the same property must survive coefficient adjustment *)
let encoding_soundness_adjusted =
  QCheck.Test.make ~name:"adjusted encoding keeps H=0 iff satisfied" ~count:100
    (QCheck.make
       QCheck.Gen.(
         int_range 3 7 >>= fun n ->
         int_range 1 8 >>= fun m ->
         int_bound 100000 >>= fun seed ->
         return (Testutil.random_cnf (Testutil.rng (seed + (n * 57) + m)) ~n ~m ~k:3)))
    (fun f ->
      let enc = Encode.encode ~num_vars:(Sat.Cnf.num_vars f) (Sat.Cnf.clauses f) in
      ignore (Adjust.adjust enc);
      let n = Sat.Cnf.num_vars f in
      let ok = ref true in
      for bits = 0 to (1 lsl n) - 1 do
        let x = Array.init n (fun v -> bits land (1 lsl v) <> 0) in
        let e = Baselines.Gap.min_energy_for enc x in
        let sat = Baselines.Gap.clauses_satisfied enc x in
        if sat && Float.abs e > 1e-9 then ok := false;
        if (not sat) && e < 1e-6 then ok := false
      done;
      !ok)

(* Paper Equation 8: the α=1 objective of c1 = x1 ∨ x2 ∨ x3 *)
let paper_example_objective () =
  (* vars: x1=0 x2=1 x3=2, aux a1=3 *)
  let c = Sat.Clause.of_dimacs [ 1; 2; 3 ] in
  let enc = Encode.encode ~num_vars:3 [ c ] in
  let h = Encode.objective enc in
  fcheck "const" 1.0 (Pbq.const h);
  fcheck "x1" 1.0 (Pbq.linear h 0);
  fcheck "x2" 1.0 (Pbq.linear h 1);
  fcheck "x3" (-1.0) (Pbq.linear h 2);
  fcheck "a1" 0.0 (Pbq.linear h 3);
  fcheck "x1x2" 1.0 (Pbq.quad h 0 1);
  fcheck "a1x1" (-2.0) (Pbq.quad h 3 0);
  fcheck "a1x2" (-2.0) (Pbq.quad h 3 1);
  fcheck "a1x3" 1.0 (Pbq.quad h 3 2);
  fcheck "d*" 2.0 (Normalize.d_star h)

(* Paper Equation 9: after adjustment α'_{1,1}=1, α'_{1,2}=2 *)
let paper_example_adjusted () =
  let c = Sat.Clause.of_dimacs [ 1; 2; 3 ] in
  let enc = Encode.encode ~num_vars:3 [ c ] in
  let h = Adjust.adjust enc in
  (match Array.to_list enc.Encode.subs with
  | [ s1; s2 ] ->
      fcheck "alpha_{1,1}" 1.0 s1.Encode.alpha;
      fcheck "alpha_{1,2}" 2.0 s2.Encode.alpha
  | _ -> Alcotest.fail "expected two sub-clauses");
  fcheck "const" 2.0 (Pbq.const h);
  fcheck "x1" 1.0 (Pbq.linear h 0);
  fcheck "x2" 1.0 (Pbq.linear h 1);
  fcheck "x3" (-2.0) (Pbq.linear h 2);
  fcheck "a1" (-1.0) (Pbq.linear h 3);
  fcheck "x1x2" 1.0 (Pbq.quad h 0 1);
  fcheck "a1x1" (-2.0) (Pbq.quad h 3 0);
  fcheck "a1x2" (-2.0) (Pbq.quad h 3 1);
  fcheck "a1x3" 2.0 (Pbq.quad h 3 2);
  fcheck "d* preserved" 2.0 (Normalize.d_star h)

let small_clause_encodings () =
  (* unit clause x1: penalty 1 - x1 *)
  let enc1 = Encode.encode ~num_vars:1 [ Sat.Clause.of_dimacs [ 1 ] ] in
  fcheck "unit satisfied" 0.0 (Baselines.Gap.min_energy_for enc1 [| true |]);
  fcheck "unit falsified" 1.0 (Baselines.Gap.min_energy_for enc1 [| false |]);
  (* binary clause ¬x1 ∨ x2 *)
  let enc2 = Encode.encode ~num_vars:2 [ Sat.Clause.of_dimacs [ -1; 2 ] ] in
  fcheck "binary satisfied" 0.0 (Baselines.Gap.min_energy_for enc2 [| false; false |]);
  fcheck "binary falsified" 1.0 (Baselines.Gap.min_energy_for enc2 [| true; false |]);
  Alcotest.(check int) "no aux introduced" 2 enc2.Encode.num_total_vars

let normalization_range =
  QCheck.Test.make ~name:"normalised objective fits hardware range" ~count:100
    Testutil.small_cnf_arb (fun f ->
      let enc = Encode.encode ~num_vars:(Sat.Cnf.num_vars f) (Sat.Cnf.clauses f) in
      Normalize.within_hardware_range (Normalize.apply (Adjust.adjust enc)))

let adjustment_helps_gap =
  (* rigorous core of the Fig 15 claim: α ≥ 1 dominates the α = 1 penalty
     pointwise, so the *unnormalised* gap can never shrink.  (The normalised
     gap improves statistically — shared variables can shift d* — which is
     what the fig15 bench measures.) *)
  QCheck.Test.make ~name:"adjustment never lowers the unnormalised gap" ~count:60
    (QCheck.make
       QCheck.Gen.(
         int_range 3 7 >>= fun n ->
         int_range 2 9 >>= fun m ->
         int_bound 100000 >>= fun seed ->
         return (Testutil.random_cnf (Testutil.rng (seed + (7 * n) + m)) ~n ~m ~k:3)))
    (fun f ->
      let enc = Encode.encode ~num_vars:(Sat.Cnf.num_vars f) (Sat.Cnf.clauses f) in
      let taut =
        (* gap undefined for clause sets no assignment can falsify *)
        try
          ignore (Gap.energy_gap ~normalized:false enc);
          false
        with Invalid_argument _ -> true
      in
      taut
      ||
      let before = Gap.energy_gap ~normalized:false enc in
      ignore (Adjust.adjust enc);
      let after = Gap.energy_gap ~normalized:false enc in
      after >= before -. 1e-9)

let adjustment_boosts_weak_clauses () =
  (* {x1, ¬x1, x2∨x3∨x4} is UNSAT and every assignment violates one of the
     unit clauses.  Their contributions cancel in the global objective
     (B_x1 = -1 + 1 = 0), so d_sub falls back to 1 and the units get α =
     d*/1 = 2, doubling the normalised gap: 0.5 → 1.0. *)
  let enc =
    Encode.encode ~num_vars:4
      [
        Sat.Clause.of_dimacs [ 1 ];
        Sat.Clause.of_dimacs [ -1 ];
        Sat.Clause.of_dimacs [ 2; 3; 4 ];
      ]
  in
  let before = Gap.energy_gap enc in
  ignore (Adjust.adjust enc);
  let after = Gap.energy_gap enc in
  fcheck "before" 0.5 before;
  fcheck "after" 1.0 after

let adjustment_preserves_d_star =
  QCheck.Test.make ~name:"adjusted objective never raises d*" ~count:100
    Testutil.small_cnf_arb (fun f ->
      let enc = Encode.encode ~num_vars:(Sat.Cnf.num_vars f) (Sat.Cnf.clauses f) in
      let before = Normalize.d_star (Encode.objective enc) in
      Normalize.d_star (Adjust.adjust enc) <= before +. 1e-6)

let adjustment_normalized_gap_never_worse =
  (* with the cap, the normalised gap is now monotone too: numerator can
     only grow (α ≥ 1) while the divisor cannot *)
  QCheck.Test.make ~name:"capped adjustment never lowers the normalised gap" ~count:50
    (QCheck.make
       QCheck.Gen.(
         int_range 3 7 >>= fun n ->
         int_range 2 9 >>= fun m ->
         int_bound 100000 >>= fun seed ->
         return (Testutil.random_cnf (Testutil.rng (seed + (13 * n) + m)) ~n ~m ~k:3)))
    (fun f ->
      let enc = Encode.encode ~num_vars:(Sat.Cnf.num_vars f) (Sat.Cnf.clauses f) in
      let taut =
        try
          ignore (Gap.energy_gap enc);
          false
        with Invalid_argument _ -> true
      in
      taut
      ||
      let before = Gap.energy_gap enc in
      ignore (Adjust.adjust enc);
      Gap.energy_gap enc >= before -. 1e-6)

(* every term of a table, in its iteration order, floats as bit patterns *)
let terms_bits h =
  let lin = ref [] and quad = ref [] in
  Pbq.iter_linear h (fun v b -> lin := (v, Int64.bits_of_float b) :: !lin);
  Pbq.iter_quad h (fun u w j -> quad := (u, w, Int64.bits_of_float j) :: !quad);
  (Int64.bits_of_float (Pbq.const h), List.rev !lin, List.rev !quad)

(* the objective [adjust] hands back is the one a rebuild from the final
   α's gives: same terms, same bits, same iteration order *)
let adjusted_objective_equals_rebuild =
  QCheck.Test.make ~name:"adjust returns the rebuilt objective bit for bit" ~count:200
    (QCheck.make
       QCheck.Gen.(
         int_range 3 12 >>= fun n ->
         int_range 1 40 >>= fun m ->
         int_bound 100000 >>= fun seed ->
         return (Testutil.random_cnf (Testutil.rng (seed + (17 * n) + m)) ~n ~m ~k:3)))
    (fun f ->
      let enc = Encode.encode ~num_vars:(Sat.Cnf.num_vars f) (Sat.Cnf.clauses f) in
      let adjusted = Adjust.adjust enc in
      terms_bits adjusted = terms_bits (Encode.objective enc))

let alphas_at_least_one =
  QCheck.Test.make ~name:"adjusted alphas are >= 1" ~count:100 Testutil.small_cnf_arb
    (fun f ->
      let enc = Encode.encode ~num_vars:(Sat.Cnf.num_vars f) (Sat.Cnf.clauses f) in
      ignore (Adjust.adjust enc);
      Array.for_all (fun s -> s.Encode.alpha >= 1. -. 1e-9) enc.Encode.subs)

let strict_encode_rejects_long_clauses () =
  let big = Sat.Clause.make (List.init 5 (fun v -> Sat.Lit.pos v)) in
  Alcotest.check_raises "strict encode raises"
    (Invalid_argument "Encode.encode: clause with more than 3 literals") (fun () ->
      ignore (Encode.encode ~num_vars:5 [ big ]))

let gap_of_single_clause () =
  (* one 3-clause: falsifying assignment gives energy exactly 1 before
     normalisation; d* = 2 so the normalised gap is 0.5 *)
  let enc = Encode.encode ~num_vars:3 [ Sat.Clause.of_dimacs [ 1; 2; 3 ] ] in
  fcheck "unnormalised gap" 1.0 (Gap.energy_gap ~normalized:false enc);
  fcheck "normalised gap" 0.5 (Gap.energy_gap enc);
  fcheck "min energy" 0.0 (Gap.min_energy enc)

let suite =
  [
    ( "qubo.pbq",
      [
        Alcotest.test_case "basics" `Quick pbq_basics;
        Alcotest.test_case "add_scaled" `Quick pbq_add_scaled;
        Alcotest.test_case "diagonal rejected" `Quick pbq_diagonal_rejected;
      ] );
    ( "qubo.encode",
      [
        Alcotest.test_case "paper equation 8" `Quick paper_example_objective;
        Alcotest.test_case "small clauses" `Quick small_clause_encodings;
        QCheck_alcotest.to_alcotest encoding_soundness;
        QCheck_alcotest.to_alcotest encoding_soundness_adjusted;
        Alcotest.test_case "strict encode rejects" `Quick strict_encode_rejects_long_clauses;
      ] );
    ( "qubo.adjust",
      [
        Alcotest.test_case "paper equation 9" `Quick paper_example_adjusted;
        QCheck_alcotest.to_alcotest alphas_at_least_one;
        QCheck_alcotest.to_alcotest adjustment_helps_gap;
        QCheck_alcotest.to_alcotest adjustment_preserves_d_star;
        QCheck_alcotest.to_alcotest adjustment_normalized_gap_never_worse;
        QCheck_alcotest.to_alcotest adjusted_objective_equals_rebuild;
        Alcotest.test_case "weak clauses boosted (normalised gap 4x)" `Quick
          adjustment_boosts_weak_clauses;
      ] );
    ("qubo.normalize", [ QCheck_alcotest.to_alcotest normalization_range ]);
    ("qubo.gap", [ Alcotest.test_case "single clause" `Quick gap_of_single_clause ]);
  ]
