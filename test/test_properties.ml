(* Final widening pass of cross-cutting properties. *)

let queue_deterministic_given_rng () =
  let f = Workload.Uniform.uf (Testutil.rng 501) 80 in
  let q1 = Hyqsat.Clause_queue.generate (Testutil.rng 7) f ~activity:(fun _ -> 1.) ~limit:40 in
  let q2 = Hyqsat.Clause_queue.generate (Testutil.rng 7) f ~activity:(fun _ -> 1.) ~limit:40 in
  Alcotest.(check (list int)) "same rng, same queue" q1 q2

let spec_instances_deterministic () =
  List.iter
    (fun spec ->
      let f1 = spec.Workload.Spec.generate (Testutil.rng 502) `Small in
      let f2 = spec.Workload.Spec.generate (Testutil.rng 502) `Small in
      Alcotest.(check bool) (spec.Workload.Spec.id ^ " deterministic") true
        (Sat.Cnf.equal f1 f2))
    Workload.Spec.table1

let aux_count_matches_three_lit_clauses =
  QCheck.Test.make ~name:"one auxiliary per 3-literal clause" ~count:100
    Testutil.small_cnf_arb (fun f ->
      let enc = Qubo.Encode.encode ~num_vars:(Sat.Cnf.num_vars f) (Sat.Cnf.clauses f) in
      let three_lit =
        List.length (List.filter (fun c -> Sat.Clause.size c = 3) (Sat.Cnf.clauses f))
      in
      enc.Qubo.Encode.num_total_vars - Sat.Cnf.num_vars f = three_lit)

(* the embedder's numbering is the encoder's: same auxiliary per clause,
   same variable universe, on mixed-width clause lists *)
let aux_numbering_matches_encode =
  let gen =
    QCheck.Gen.(
      int_range 3 10 >>= fun n ->
      int_bound 30 >>= fun m ->
      int_bound 1_000_000 >>= fun seed ->
      return
        (let r = Testutil.rng seed in
         ( n,
           List.init m (fun _ -> Testutil.random_clause r ~n ~k:(1 + Stats.Rng.int r 3)) )))
  in
  QCheck.Test.make ~name:"aux_numbering = encode's numbering" ~count:200
    (QCheck.make
       ~print:(fun (n, cs) ->
         Printf.sprintf "n=%d %s" n
           (String.concat " | " (List.map (Format.asprintf "%a" Sat.Clause.pp) cs)))
       gen)
    (fun (n, clauses) ->
      let enc = Qubo.Encode.encode ~num_vars:n clauses in
      let aux, total = Qubo.Encode.aux_numbering ~num_vars:n (Array.of_list clauses) in
      aux = enc.Qubo.Encode.aux_of_clause && total = enc.Qubo.Encode.num_total_vars)

let embedding_qubits_disjoint =
  QCheck.Test.make ~name:"hyqsat chains use disjoint qubits" ~count:20
    (QCheck.make QCheck.Gen.(int_bound 10000))
    (fun seed ->
      let r = Testutil.rng (503 + seed) in
      let f = Workload.Uniform.uf r 60 in
      let q = Hyqsat.Clause_queue.generate r f ~activity:(fun _ -> 1.) ~limit:40 ~var_budget:64 in
      let enc = Qubo.Encode.encode ~num_vars:60 (List.map (Sat.Cnf.clause f) q) in
      let g = Chimera.Graph.standard_2000q () in
      let res = Testutil.embed_encoded g enc in
      let emb = res.Embed.Hyqsat_scheme.embedding in
      let seen = Hashtbl.create 256 in
      Array.for_all
        (Array.for_all (fun qubit ->
             if Hashtbl.mem seen qubit then false
             else begin
               Hashtbl.replace seen qubit ();
               true
             end))
        emb.Embed.Embedding.chains)

let warmup_scales_with_sqrt_k () =
  (* 4x the clauses (at fixed ratio) should le roughly double the warm-up *)
  let mk n = Workload.Uniform.uf (Testutil.rng 504) n in
  let k1 = Hyqsat.Hybrid_solver.estimate_iterations (mk 50) in
  let k2 = Hyqsat.Hybrid_solver.estimate_iterations (mk 200) in
  Alcotest.(check bool) "bigger problem, bigger estimate" true (k2 > k1);
  let w1 = sqrt (float_of_int k1) and w2 = sqrt (float_of_int k2) in
  Alcotest.(check bool) "sqrt scaling in a sane band" true (w2 /. w1 > 1.5 && w2 /. w1 < 4.)

(* [text] with each line break randomly CRLF and followed by comment
   lines, and each space randomly a tab run: layouts DIMACS must read as
   the plain rendering *)
let scramble_layout r text =
  let choice a = a.(Stats.Rng.int r (Array.length a)) in
  let comments = [| "c layout\n"; " \tc 1 2 0\r\n"; "c\n" |] in
  let b = Buffer.create (2 * String.length text) in
  String.iter
    (function
      | '\n' ->
          Buffer.add_string b (if Stats.Rng.bool r then "\r\n" else "\n");
          if Stats.Rng.int r 4 = 0 then Buffer.add_string b (choice comments)
      | ' ' -> Buffer.add_string b (choice [| " "; "\t"; " \t  " |])
      | c -> Buffer.add_char b c)
    text;
  Buffer.contents b

let dimacs_of_generated_is_reparseable =
  QCheck.Test.make ~name:"generated benchmarks round-trip through DIMACS" ~count:14
    (QCheck.make QCheck.Gen.(pair (int_bound 13) (int_bound 100000)))
    (fun (i, seed) ->
      let spec = List.nth Workload.Spec.table1 i in
      let f = spec.Workload.Spec.generate (Testutil.rng (505 + i)) `Small in
      let text = scramble_layout (Testutil.rng seed) (Sat.Dimacs.to_string f) in
      Sat.Cnf.equal f (Sat.Dimacs.parse_string text))

let suite =
  [
    ( "properties",
      [
        Alcotest.test_case "queue deterministic" `Quick queue_deterministic_given_rng;
        Alcotest.test_case "spec deterministic" `Quick spec_instances_deterministic;
        QCheck_alcotest.to_alcotest aux_count_matches_three_lit_clauses;
        QCheck_alcotest.to_alcotest aux_numbering_matches_encode;
        QCheck_alcotest.to_alcotest embedding_qubits_disjoint;
        Alcotest.test_case "warmup sqrt scaling" `Quick warmup_scales_with_sqrt_k;
        QCheck_alcotest.to_alcotest dimacs_of_generated_is_reparseable;
      ] );
  ]
