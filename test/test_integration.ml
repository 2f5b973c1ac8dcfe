(* Cross-library integration tests: the full hybrid pipeline on every
   workload family, soundness under failure injection, and end-to-end
   accounting invariants. *)

module Hybrid = Hyqsat.Hybrid_solver

let hsolve ?(config = Hybrid.default_config) f = Hyqsat.Solve.run (Hyqsat.Solve.Hybrid config) f
let csolve f = Hyqsat.Solve.run (Hyqsat.Solve.Classic Cdcl.Config.minisat_like) f

let small_instance (spec : Workload.Spec.t) seed =
  spec.Workload.Spec.generate (Testutil.rng seed) `Small

(* tiny versions of each family so the integration pass stays fast *)
let tiny_instances =
  [
    ("gc", fun r -> Workload.Graph_coloring.generate r ~nodes:12 ~edges:22);
    ("cfa", fun r -> Workload.Circuit_fault.generate r ~inputs:6 ~gates:24);
    ("bp", fun r -> Workload.Block_planning.generate r ~blocks:3 ~steps:2);
    ("ii", fun r -> Workload.Inductive_inference.generate r ~attributes:8 ~terms:2 ~examples:10);
    ("if", fun r -> Workload.Factoring.generate r ~bits:4);
    ("cry", fun r -> Workload.Crypto.generate r ~bits:5);
    ("ai", fun r -> Workload.Uniform.uf r 40);
  ]

let hybrid_solves_every_family () =
  List.iter
    (fun (name, gen) ->
      let f = gen (Testutil.rng (Hashtbl.hash name)) in
      let classic = csolve f in
      let hybrid = hsolve f in
      let is_sat = function Cdcl.Solver.Sat _ -> true | _ -> false in
      Alcotest.(check bool)
        (name ^ ": hybrid agrees with classic")
        (is_sat classic.Hybrid.result) (is_sat hybrid.Hybrid.result);
      match hybrid.Hybrid.result with
      | Cdcl.Solver.Sat m ->
          Alcotest.(check bool) (name ^ ": model valid") true (Testutil.check_model f m)
      | Cdcl.Solver.Unsat | Cdcl.Solver.Unknown _ -> ())
    tiny_instances

let unsat_with_proof_end_to_end () =
  (* generate a circuit-fault instance, solve with proof logging, check *)
  let f = Workload.Circuit_fault.generate (Testutil.rng 77) ~inputs:6 ~gates:20 in
  let config = Cdcl.Config.with_proof_logging Cdcl.Config.minisat_like in
  let s = Cdcl.Solver.create ~config f in
  (match Cdcl.Solver.solve s with
  | Cdcl.Solver.Unsat -> ()
  | _ -> Alcotest.fail "cfa should be unsat");
  match Cdcl.Solver.proof s with
  | None -> Alcotest.fail "proof missing"
  | Some proof -> (
      match Sat.Drat.check f proof with Ok () -> () | Error e -> Alcotest.fail e)

let extreme_noise_soundness () =
  (* failure injection: an adversarially noisy annealer cannot change any
     answer, only slow the search down *)
  let config =
    Hybrid.make_config
      ~noise:{ Anneal.Noise.coeff_sigma = 1.0; readout_flip = 0.5; shallow_anneal = true }
      ()
  in
  List.iter
    (fun (name, gen) ->
      let f = gen (Testutil.rng (2 + Hashtbl.hash name)) in
      let classic = csolve f in
      let hybrid = hsolve ~config f in
      let is_sat = function Cdcl.Solver.Sat _ -> true | _ -> false in
      Alcotest.(check bool)
        (name ^ ": sound under extreme noise")
        (is_sat classic.Hybrid.result) (is_sat hybrid.Hybrid.result))
    tiny_instances

let pipelined_time_bounds () =
  let f = small_instance (Testutil.spec "AI1") 9 in
  let r = hsolve f in
  Alcotest.(check bool) "pipelined <= serialised" true
    (Hybrid.end_to_end_pipelined_s r <= Hybrid.end_to_end_time_s r +. 1e-12);
  Alcotest.(check bool) "pipelined >= cdcl" true
    (Hybrid.end_to_end_pipelined_s r >= r.Hybrid.cdcl_time_s -. 1e-12)

let deterministic_given_seed () =
  let f = small_instance (Testutil.spec "AI1") 11 in
  let r1 = hsolve f and r2 = hsolve f in
  Alcotest.(check int) "same iterations" r1.Hybrid.iterations r2.Hybrid.iterations;
  Alcotest.(check int) "same qa calls" r1.Hybrid.qa_calls r2.Hybrid.qa_calls;
  Alcotest.(check bool) "same strategies" true
    (r1.Hybrid.strategy_uses = r2.Hybrid.strategy_uses)

let cli_roundtrip_via_dimacs () =
  (* what the CLI does: write an instance, parse it back, solve *)
  let f = small_instance (Testutil.spec "GC1") 13 in
  let path = Filename.temp_file "hyqsat_test" ".cnf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sat.Dimacs.write_file ~comments:[ "integration test" ] path f;
      let f' = Sat.Dimacs.parse_file path in
      Alcotest.(check bool) "roundtrip equal" true (Sat.Cnf.equal f f');
      match (hsolve f').Hybrid.result with
      | Cdcl.Solver.Sat m -> Alcotest.(check bool) "model" true (Testutil.check_model f m)
      | _ -> Alcotest.fail "flat graphs are 3-colourable")

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "hybrid solves every family" `Slow hybrid_solves_every_family;
        Alcotest.test_case "unsat proof end-to-end" `Quick unsat_with_proof_end_to_end;
        Alcotest.test_case "extreme-noise soundness" `Slow extreme_noise_soundness;
        Alcotest.test_case "pipelined time bounds" `Quick pipelined_time_bounds;
        Alcotest.test_case "deterministic given seed" `Quick deterministic_given_seed;
        Alcotest.test_case "dimacs roundtrip solve" `Quick cli_roundtrip_via_dimacs;
      ] );
  ]
