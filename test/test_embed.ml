(* Tests for the three embedding schemes. *)

module G = Chimera.Graph
module Embedding = Embed.Embedding
module Hyq = Embed.Hyqsat_scheme
module Mm = Baselines.Minorminer_like
module Pr = Baselines.Place_route

(* a clause queue with BFS-style variable locality, like the frontend emits *)
let locality_queue r ~n ~m =
  List.init m (fun i ->
      let base = i * 2 mod n in
      let v1 = base
      and v2 = (base + 1 + Stats.Rng.int r 3) mod n
      and v3 = (base + 4 + Stats.Rng.int r 5) mod n in
      let distinct = List.sort_uniq Int.compare [ v1; v2; v3 ] in
      Sat.Clause.make (List.map (fun v -> Sat.Lit.make v (Stats.Rng.bool r)) distinct))

let encode_queue ~n clauses = Qubo.Encode.encode ~num_vars:n clauses

let problem_graph_of_prefix enc prefix =
  (* nodes and edges of the embedded prefix, as the embedder sees them *)
  let enc' =
    Qubo.Encode.encode ~num_vars:enc.Qubo.Encode.num_original_vars
      (Array.to_list (Array.sub enc.Qubo.Encode.clauses 0 prefix))
  in
  let obj = Qubo.Encode.objective enc' in
  (Qubo.Pbq.vars obj, Qubo.Pbq.edges obj)

let hyqsat_embeds_and_validates () =
  let r = Testutil.rng 31 in
  let g = G.standard_2000q () in
  List.iter
    (fun m ->
      let n = max 6 (m / 2) in
      let clauses = locality_queue r ~n ~m in
      let enc = encode_queue ~n clauses in
      let res = Testutil.embed_encoded g enc in
      Alcotest.(check bool)
        (Printf.sprintf "some clauses embedded (m=%d)" m)
        true (res.Hyq.embedded_clauses > 0);
      let _, edges = problem_graph_of_prefix enc res.Hyq.embedded_clauses in
      (match Embedding.validate res.Hyq.embedding ~edges with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "invalid embedding (m=%d): %s" m e)))
    [ 1; 5; 20; 60 ]

let hyqsat_prefix_monotone () =
  (* a longer queue can only extend the embedded prefix of its own prefix *)
  let r = Testutil.rng 37 in
  let g = G.create ~rows:4 ~cols:4 in
  let n = 12 in
  let clauses = locality_queue r ~n ~m:40 in
  let enc_full = encode_queue ~n clauses in
  let full = (Testutil.embed_encoded g enc_full).Hyq.embedded_clauses in
  let shorter =
    (Testutil.embed_encoded g (encode_queue ~n (List.filteri (fun i _ -> i < 10) clauses)))
      .Hyq.embedded_clauses
  in
  Alcotest.(check bool) "prefix of prefix" true (full >= min shorter 10 || shorter = 10)

let hyqsat_small_hardware_caps_clauses () =
  let r = Testutil.rng 41 in
  let g = G.create ~rows:2 ~cols:2 in
  (* 8 vertical lines: queues over many variables must be cut off *)
  let clauses = locality_queue r ~n:40 ~m:60 in
  let enc = encode_queue ~n:40 clauses in
  let res = Testutil.embed_encoded g enc in
  Alcotest.(check bool) "capped" true (res.Hyq.embedded_clauses < 60);
  let _, edges = problem_graph_of_prefix enc res.Hyq.embedded_clauses in
  match Embedding.validate res.Hyq.embedding ~edges with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let hyqsat_chain_structure () =
  let r = Testutil.rng 43 in
  let g = G.standard_2000q () in
  let clauses = locality_queue r ~n:20 ~m:30 in
  let enc = encode_queue ~n:20 clauses in
  let res = Testutil.embed_encoded g enc in
  Alcotest.(check bool) "avg chain >= 1" true (Embedding.avg_chain_length res.Hyq.embedding >= 1.);
  Alcotest.(check bool) "uses fewer qubits than hardware" true
    (Embedding.qubits_used res.Hyq.embedding < G.num_qubits g)

let small_problem_graph r ~nodes ~density =
  let edges = ref [] in
  for i = 0 to nodes - 1 do
    for j = i + 1 to nodes - 1 do
      if Stats.Rng.float r 1.0 < density then edges := (i, j) :: !edges
    done
  done;
  (List.init nodes Fun.id, !edges)

let minorminer_validates () =
  let r = Testutil.rng 47 in
  let g = G.create ~rows:4 ~cols:4 in
  for seed = 1 to 5 do
    let nodes, edges = small_problem_graph r ~nodes:10 ~density:0.3 in
    match (Mm.embed ~seed g ~nodes ~edges).Mm.embedding with
    | None -> Alcotest.fail "minorminer failed on an easy instance"
    | Some emb -> (
        match Embedding.validate emb ~edges with
        | Ok () -> ()
        | Error e -> Alcotest.fail e)
  done

let minorminer_fails_gracefully () =
  (* K9 cannot embed in a single 2x1 Chimera slab (8+8 qubits, treewidth) *)
  let g = G.create ~rows:1 ~cols:1 in
  let nodes = List.init 9 Fun.id in
  let edges = List.concat_map (fun i -> List.init i (fun j -> (j, i))) nodes in
  match (Mm.embed ~max_rounds:4 g ~nodes ~edges).Mm.embedding with
  | None -> ()
  | Some emb -> (
      (* if it claims success it must actually be valid *)
      match Embedding.validate emb ~edges with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("invalid claimed embedding: " ^ e))

let place_route_validates () =
  let r = Testutil.rng 53 in
  let g = G.create ~rows:6 ~cols:6 in
  let nodes, edges = small_problem_graph r ~nodes:8 ~density:0.25 in
  match Pr.embed g ~nodes ~edges with
  | None -> Alcotest.fail "place&route failed on an easy instance"
  | Some emb -> (
      match Embedding.validate emb ~edges with Ok () -> () | Error e -> Alcotest.fail e)

let baselines_honour_timeout () =
  (* a deadline already past: both baseline embedders give up *)
  let r = Testutil.rng 59 in
  let g = G.create ~rows:6 ~cols:6 in
  let nodes, edges = small_problem_graph r ~nodes:8 ~density:0.25 in
  Alcotest.(check bool) "minorminer gives up" true
    ((Mm.embed ~timeout_s:(-1.) g ~nodes ~edges).Mm.embedding = None);
  Alcotest.(check bool) "place&route gives up" true
    (Pr.embed ~timeout_s:(-1.) g ~nodes ~edges = None)

let validate_rejects_broken () =
  let g = G.create ~rows:2 ~cols:2 in
  let emb = Embedding.create g in
  (* disconnected chain: two qubits in different cells, not coupled *)
  Embedding.set_chain emb 0 [ 0; 15 ];
  (match Embedding.validate emb ~edges:[] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "disconnected chain accepted");
  (* overlapping chains *)
  let emb2 = Embedding.create g in
  Embedding.set_chain emb2 0 [ 0 ];
  Embedding.set_chain emb2 1 [ 0 ];
  (match Embedding.validate emb2 ~edges:[] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overlap accepted");
  (* missing edge realisation *)
  let emb3 = Embedding.create g in
  Embedding.set_chain emb3 0 [ 0 ];
  Embedding.set_chain emb3 1 [ 1 ];
  (* qubits 0 and 1 are two vertical qubits of one cell: not adjacent *)
  match Embedding.validate emb3 ~edges:[ (0, 1) ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unrealised edge accepted"

let embedding_respects_queue_random =
  QCheck.Test.make ~name:"hyqsat embedding always a valid minor" ~count:25
    (QCheck.make
       QCheck.Gen.(
         int_range 5 30 >>= fun m ->
         int_bound 10000 >>= fun seed ->
         return (m, seed)))
    (fun (m, seed) ->
      let r = Testutil.rng seed in
      let n = max 6 (m / 2) in
      let clauses = locality_queue r ~n ~m in
      let enc = encode_queue ~n clauses in
      let g = G.create ~rows:8 ~cols:8 in
      let res = Testutil.embed_encoded g enc in
      let _, edges = problem_graph_of_prefix enc res.Hyq.embedded_clauses in
      match Embedding.validate res.Hyq.embedding ~edges with Ok () -> true | Error _ -> false)

let suite =
  [
    ( "embed.hyqsat",
      [
        Alcotest.test_case "embeds and validates" `Quick hyqsat_embeds_and_validates;
        Alcotest.test_case "prefix monotone" `Quick hyqsat_prefix_monotone;
        Alcotest.test_case "small hardware caps clauses" `Quick hyqsat_small_hardware_caps_clauses;
        Alcotest.test_case "chain structure" `Quick hyqsat_chain_structure;
        QCheck_alcotest.to_alcotest embedding_respects_queue_random;
      ] );
    ( "embed.minorminer",
      [
        Alcotest.test_case "validates" `Quick minorminer_validates;
        Alcotest.test_case "fails gracefully" `Quick minorminer_fails_gracefully;
      ] );
    ("embed.place_route", [ Alcotest.test_case "validates" `Quick place_route_validates ]);
    ( "embed.timeout",
      [ Alcotest.test_case "baselines honour timeout_s" `Quick baselines_honour_timeout ] );
    ("embed.validate", [ Alcotest.test_case "rejects broken" `Quick validate_rejects_broken ]);
  ]
