(* Tests for the benchmark generators. *)

module Circuit = Workload.Circuit
module Uniform = Workload.Uniform
module Gc = Workload.Graph_coloring
module Cfa = Workload.Circuit_fault
module Bp = Workload.Block_planning
module Ii = Workload.Inductive_inference
module Factoring = Workload.Factoring
module Crypto = Workload.Crypto
module Spec = Workload.Spec

let solve f = Cdcl.Solver.solve (Cdcl.Solver.create f)

let expect_sat name f =
  match solve f with
  | Cdcl.Solver.Sat m ->
      Alcotest.(check bool) (name ^ " model valid") true (Testutil.check_model f m)
  | Cdcl.Solver.Unsat -> Alcotest.fail (name ^ " unexpectedly UNSAT")
  | Cdcl.Solver.Unknown _ -> Alcotest.fail (name ^ " unknown")

let expect_unsat name f =
  match solve f with
  | Cdcl.Solver.Unsat -> ()
  | Cdcl.Solver.Sat _ -> Alcotest.fail (name ^ " unexpectedly SAT")
  | Cdcl.Solver.Unknown _ -> Alcotest.fail (name ^ " unknown")

(* ---- circuit substrate ---- *)

let circuit_gate_semantics () =
  (* exhaustive check of every gate against the CNF via brute force *)
  let check build reference =
    let c = Circuit.create () in
    let a = Circuit.fresh_input c in
    let b = Circuit.fresh_input c in
    let z = build c a b in
    let cnf = Circuit.to_cnf c in
    (* for each input combination, constrain inputs and check z's value *)
    List.iter
      (fun (va, vb) ->
        let unit w v =
          Sat.Clause.make [ (if v then Sat.Lit.pos w else Sat.Lit.neg_of w) ]
        in
        let constrained = Sat.Cnf.append cnf [ unit a va; unit b vb ] in
        match Oracle.Brute.solve constrained with
        | None -> Alcotest.fail "gate CNF unsatisfiable under inputs"
        | Some m ->
            Alcotest.(check bool)
              (Printf.sprintf "gate(%b,%b)" va vb)
              (reference va vb) m.(z))
      [ (false, false); (false, true); (true, false); (true, true) ]
  in
  check Circuit.and_ ( && );
  check Circuit.or_ ( || );
  check Circuit.xor_ ( <> );
  check Circuit.nand_ (fun a b -> not (a && b))

let circuit_adder () =
  let c = Circuit.create () in
  let xs = List.init 3 (fun _ -> Circuit.fresh_input c) in
  let ys = List.init 3 (fun _ -> Circuit.fresh_input c) in
  let sum = Circuit.ripple_adder c xs ys in
  Alcotest.(check int) "width" 4 (List.length sum);
  (* 5 + 3 = 8 via simulation *)
  let bits v w = List.mapi (fun i wire -> (wire, (v lsr i) land 1 = 1)) w in
  let value = Circuit.eval c ~inputs:(bits 5 xs @ bits 3 ys) in
  let result = List.fold_left (fun acc (i, w) -> if value w then acc + (1 lsl i) else acc) 0
      (List.mapi (fun i w -> (i, w)) sum) in
  Alcotest.(check int) "5+3" 8 result

let circuit_multiplier () =
  let c = Circuit.create () in
  let xs = List.init 3 (fun _ -> Circuit.fresh_input c) in
  let ys = List.init 3 (fun _ -> Circuit.fresh_input c) in
  let prod = Circuit.multiplier c xs ys in
  Alcotest.(check int) "width" 6 (List.length prod);
  let bits v w = List.mapi (fun i wire -> (wire, (v lsr i) land 1 = 1)) w in
  List.iter
    (fun (a, b) ->
      let value = Circuit.eval c ~inputs:(bits a xs @ bits b ys) in
      let result =
        List.fold_left
          (fun acc (i, w) -> if value w then acc + (1 lsl i) else acc)
          0
          (List.mapi (fun i w -> (i, w)) prod)
      in
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b) result)
    [ (0, 0); (1, 5); (3, 3); (7, 6); (7, 7) ]

(* ---- generators ---- *)

let uniform_shape () =
  let r = Testutil.rng 61 in
  let f = Uniform.uf r 50 in
  Alcotest.(check int) "vars" 50 (Sat.Cnf.num_vars f);
  Alcotest.(check int) "clauses" 215 (Sat.Cnf.num_clauses f);
  Alcotest.(check bool) "3sat" true (Sat.Cnf.is_3sat f);
  expect_sat "uf50 (planted)" f

let uniform_unplanted_varies () =
  let r = Testutil.rng 67 in
  (* over-constrained unplanted instances should often be UNSAT *)
  let unsat = ref 0 in
  for _ = 1 to 10 do
    let f = Uniform.generate ~planted:false r ~num_vars:20 ~num_clauses:160 in
    if solve f = Cdcl.Solver.Unsat then incr unsat
  done;
  Alcotest.(check bool) "ratio-8 instances mostly unsat" true (!unsat >= 8)

let graph_coloring_shape () =
  let r = Testutil.rng 71 in
  let f = Gc.generate r ~nodes:150 ~edges:360 in
  Alcotest.(check int) "vars" 450 (Sat.Cnf.num_vars f);
  Alcotest.(check int) "clauses" 1680 (Sat.Cnf.num_clauses f);
  let small = Gc.generate r ~nodes:12 ~edges:20 in
  expect_sat "3-colourable" small

let circuit_fault_unsat () =
  let r = Testutil.rng 73 in
  let f = Cfa.generate r ~inputs:5 ~gates:12 in
  Alcotest.(check bool) "3sat" true (Sat.Cnf.is_3sat f);
  expect_unsat "redundant fault" f

let circuit_fault_testable_sat () =
  let r = Testutil.rng 79 in
  (* a live stuck-at-0 is usually detectable; accept either answer but make
     sure several seeds give at least one SAT (fault observable) *)
  let sat = ref 0 in
  for seed = 1 to 8 do
    let f = Cfa.generate ~force_redundant:false (Testutil.rng (seed * 7)) ~inputs:5 ~gates:12 in
    if (match solve f with Cdcl.Solver.Sat _ -> true | _ -> false) then incr sat
  done;
  ignore r;
  Alcotest.(check bool) "some faults testable" true (!sat >= 1)

let block_planning_solvable () =
  let r = Testutil.rng 83 in
  for _ = 1 to 3 do
    let f = Bp.generate r ~blocks:3 ~steps:2 in
    Alcotest.(check bool) "3sat" true (Sat.Cnf.is_3sat f);
    expect_sat "blocksworld" f
  done

let block_planning_is_easy () =
  let r = Testutil.rng 89 in
  let f = Bp.generate r ~blocks:3 ~steps:3 in
  let s = Cdcl.Solver.create f in
  ignore (Cdcl.Solver.solve s);
  let st = Cdcl.Solver.stats s in
  (* Table I: BP solves in single-digit iterations-to-conflict ratio; here we
     only require that conflicts stay tiny relative to propagations *)
  Alcotest.(check bool) "mostly propagation" true
    (st.Cdcl.Solver.conflicts * 10 < st.Cdcl.Solver.propagations + 10)

let inductive_inference_sat () =
  let r = Testutil.rng 97 in
  let f = Ii.generate r ~attributes:6 ~terms:3 ~examples:10 in
  Alcotest.(check bool) "3sat" true (Sat.Cnf.is_3sat f);
  (* hypothesis space (3 terms) ⊇ hidden 2-term DNF: satisfiable *)
  expect_sat "inference" f

let factoring_finds_factors () =
  (* 15 = 3 × 5 with 3-bit operands *)
  let f = Factoring.of_target ~target:15 ~bits:3 in
  (match solve f with
  | Cdcl.Solver.Sat m ->
      (* decode operands: inputs are the first 6 wires (xs then ys) *)
      let value off = (if m.(off) then 1 else 0) + (if m.(off + 1) then 2 else 0) + if m.(off + 2) then 4 else 0 in
      let x = value 0 and y = value 3 in
      Alcotest.(check int) "x*y" 15 (x * y);
      Alcotest.(check bool) "nontrivial" true (x > 1 && y > 1)
  | _ -> Alcotest.fail "15 should factor");
  (* 13 is prime: no nontrivial factorisation *)
  expect_unsat "prime target" (Factoring.of_target ~target:13 ~bits:3)

let crypto_equivalence () =
  let r = Testutil.rng 101 in
  expect_unsat "adders equivalent" (Crypto.generate r ~bits:3);
  expect_sat "buggy adder differs" (Crypto.generate ~buggy:true r ~bits:3)

let spec_all_generate () =
  let r = Testutil.rng 103 in
  Alcotest.(check int) "14 benchmarks" 14 (List.length Spec.table1);
  List.iter
    (fun spec ->
      let f = spec.Spec.generate r `Small in
      Alcotest.(check bool) (spec.Spec.id ^ " 3sat") true (Sat.Cnf.is_3sat f);
      Alcotest.(check bool) (spec.Spec.id ^ " nonempty") true (Sat.Cnf.num_clauses f > 0))
    Spec.table1

let spec_paper_scale_counts () =
  let r = Testutil.rng 107 in
  let gc1 = (Testutil.spec "GC1").Spec.generate r `Paper in
  Alcotest.(check int) "GC1 vars" 450 (Sat.Cnf.num_vars gc1);
  let ai1 = (Testutil.spec "AI1").Spec.generate r `Paper in
  Alcotest.(check int) "AI1 vars" 150 (Sat.Cnf.num_vars ai1);
  Alcotest.(check int) "AI1 clauses" 645 (Sat.Cnf.num_clauses ai1)

let suite =
  [
    ( "workload.circuit",
      [
        Alcotest.test_case "gate semantics" `Quick circuit_gate_semantics;
        Alcotest.test_case "adder" `Quick circuit_adder;
        Alcotest.test_case "multiplier" `Quick circuit_multiplier;
      ] );
    ( "workload.uniform",
      [
        Alcotest.test_case "shape + planted sat" `Quick uniform_shape;
        Alcotest.test_case "unplanted overconstrained" `Slow uniform_unplanted_varies;
      ] );
    ("workload.graph_coloring", [ Alcotest.test_case "shape" `Quick graph_coloring_shape ]);
    ( "workload.circuit_fault",
      [
        Alcotest.test_case "redundant fault unsat" `Quick circuit_fault_unsat;
        Alcotest.test_case "live fault testable" `Slow circuit_fault_testable_sat;
      ] );
    ( "workload.block_planning",
      [
        Alcotest.test_case "solvable" `Quick block_planning_solvable;
        Alcotest.test_case "propagation-dominated" `Quick block_planning_is_easy;
      ] );
    ("workload.inductive_inference", [ Alcotest.test_case "sat" `Quick inductive_inference_sat ]);
    ("workload.factoring", [ Alcotest.test_case "factors" `Quick factoring_finds_factors ]);
    ("workload.crypto", [ Alcotest.test_case "equivalence" `Quick crypto_equivalence ]);
    ( "workload.spec",
      [
        Alcotest.test_case "all generate" `Quick spec_all_generate;
        Alcotest.test_case "paper-scale counts" `Quick spec_paper_scale_counts;
      ] );
  ]
