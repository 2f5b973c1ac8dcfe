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
  let rejected what ~chains ~couplers ~edges =
    match Embedding.validate (Embedding.make g ~chains ~couplers) ~edges with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (what ^ " accepted")
  in
  (* disconnected chain: two qubits in different cells, not coupled *)
  rejected "disconnected chain" ~chains:[ (0, [ 0; 15 ]) ] ~couplers:[] ~edges:[];
  rejected "overlap" ~chains:[ (0, [ 0 ]); (1, [ 0 ]) ] ~couplers:[] ~edges:[];
  (* qubits 0 and 1 are two vertical qubits of one cell: not adjacent *)
  rejected "unrealised edge" ~chains:[ (0, [ 0 ]); (1, [ 1 ]) ] ~couplers:[] ~edges:[ (0, 1) ];
  (* qubits 0 and 4 share a cell's K4,4 coupler, but the edge registers
     none: the device is programmed from registered couplers only *)
  rejected "unregistered edge" ~chains:[ (0, [ 0 ]); (1, [ 4 ]) ] ~couplers:[] ~edges:[ (0, 1) ];
  (* a coupler must start and end in its edge's chains *)
  Alcotest.check_raises "coupler outside its chains"
    (Invalid_argument "Embedding.make: coupler outside its chains") (fun () ->
      ignore (Embedding.make g ~chains:[ (0, [ 0 ]); (1, [ 5 ]) ] ~couplers:[ ((0, 1), (0, 4)) ]))

(* a random clause queue (the locality generator above) and its placement
   on an 8×8 graph, with the problem edges of the embedded prefix *)
let queue_arb =
  QCheck.make
    QCheck.Gen.(
      int_range 5 30 >>= fun m ->
      int_bound 10000 >>= fun seed -> return (m, seed))

let place_queue (m, seed) =
  let r = Testutil.rng seed in
  let n = max 6 (m / 2) in
  let enc = encode_queue ~n (locality_queue r ~n ~m) in
  let res = Testutil.embed_encoded (G.create ~rows:8 ~cols:8) enc in
  let _, edges = problem_graph_of_prefix enc res.Hyq.embedded_clauses in
  (res.Hyq.embedding, edges)

let embedding_respects_queue_random =
  QCheck.Test.make ~name:"hyqsat embedding always a valid minor" ~count:25 queue_arb (fun q ->
      let emb, edges = place_queue q in
      match Embedding.validate emb ~edges with Ok () -> true | Error _ -> false)

(* the oracle for [make]'s wiring: a first-touch physical index over the
   chains, and every adjacent qubit pair of each chain found by asking
   [adjacent] of all pairs, chain by chain in ascending pair order *)
let pairwise_wiring emb =
  let phys = Hashtbl.create 64 in
  Array.iter
    (Array.iter (fun q ->
         if not (Hashtbl.mem phys q) then Hashtbl.replace phys q (Hashtbl.length phys)))
    emb.Embedding.chains;
  let rec pairs = function
    | [] -> []
    | q :: rest ->
        List.filter_map
          (fun q' ->
            if G.adjacent emb.Embedding.graph q q' then
              Some [ Hashtbl.find phys q; Hashtbl.find phys q' ]
            else None)
          rest
        @ pairs rest
  in
  let chains = Array.to_list emb.Embedding.chains in
  (phys, List.concat (List.concat_map (fun c -> pairs (Array.to_list c)) chains))

let wiring_matches_pairwise_scan =
  QCheck.Test.make ~name:"placement wiring equals the pairwise scan, every edge registered"
    ~count:25 queue_arb (fun q ->
      let emb, edges = place_queue q in
      let phys, chain_couplers = pairwise_wiring emb in
      emb.Embedding.num_phys = Hashtbl.length phys
      && Array.for_all
           (Array.for_all (fun q -> emb.Embedding.phys.(q) = Hashtbl.find phys q))
           emb.Embedding.chains
      && Array.to_list emb.Embedding.chain_couplers = chain_couplers
      && List.for_all (fun (i, j) -> Embedding.edge_coupler emb i j <> None) edges)

let suite =
  [
    ( "embed.hyqsat",
      [
        Alcotest.test_case "embeds and validates" `Quick hyqsat_embeds_and_validates;
        Alcotest.test_case "prefix monotone" `Quick hyqsat_prefix_monotone;
        Alcotest.test_case "small hardware caps clauses" `Quick hyqsat_small_hardware_caps_clauses;
        Alcotest.test_case "chain structure" `Quick hyqsat_chain_structure;
        QCheck_alcotest.to_alcotest embedding_respects_queue_random;
        QCheck_alcotest.to_alcotest wiring_matches_pairwise_scan;
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
