type t = {
  graph : Chimera.Graph.t;
  nodes : int array;
  chains : int array array;
  couplers : (int * (int * int)) list array;
  slots : int array;
  phys : int array;
  num_phys : int;
  chain_couplers : int array;
}

let slot_in slots v = if v >= 0 && v < Array.length slots then slots.(v) else -1
let slot t v = slot_in t.slots v

let make graph ~chains ~couplers =
  let nq = Chimera.Graph.num_qubits graph in
  let by_node = Array.of_list (List.sort (fun (a, _) (b, _) -> Int.compare a b) chains) in
  let nodes = Array.map fst by_node in
  let chains = Array.map (fun (_, qs) -> Array.of_list (List.sort_uniq Int.compare qs)) by_node in
  let n = Array.length nodes in
  let slots = Array.make (if n = 0 then 0 else nodes.(n - 1) + 1) (-1) in
  Array.iteri
    (fun k v ->
      if slots.(v) >= 0 then invalid_arg "Embedding.make: repeated node";
      slots.(v) <- k)
    nodes;
  (* dense physical index over the chains' qubits, in first-touch order *)
  let phys = Array.make nq (-1) in
  let num_phys = ref 0 in
  Array.iter
    (Array.iter (fun q ->
         if phys.(q) < 0 then begin
           phys.(q) <- !num_phys;
           incr num_phys
         end))
    chains;
  (* internal couplers: chain [k]'s qubits are marked [k] just before its
     walk, so a neighbour is in the chain iff it is marked [k], overlapping
     chains included.  Ascending qubits, each with its larger neighbours in
     ascending order, list every adjacent pair of the chain in ascending
     order *)
  let owner = Array.make nq (-1) in
  let internal = ref [] in
  Array.iteri
    (fun k chain ->
      Array.iter (fun q -> owner.(q) <- k) chain;
      Array.iter
        (fun q ->
          Chimera.Graph.iter_upper_neighbors graph q (fun q' ->
              if owner.(q') = k then internal := phys.(q') :: phys.(q) :: !internal))
        chain)
    chains;
  (* each registered coupler under the slot of its edge's smaller node *)
  let in_chain v q = slot_in slots v >= 0 && Array.exists (fun q' -> q' = q) chains.(slots.(v)) in
  let by_slot = Array.make n [] in
  List.iter
    (fun ((i, j), (qi, qj)) ->
      if not (in_chain i qi && in_chain j qj) then
        invalid_arg "Embedding.make: coupler outside its chains";
      let i, j, c = if i < j then (i, j, (qi, qj)) else (j, i, (qj, qi)) in
      by_slot.(slots.(i)) <- (j, c) :: by_slot.(slots.(i)))
    couplers;
  let chain_couplers = Array.of_list (List.rev !internal) in
  { graph; nodes; chains; couplers = by_slot; slots; phys; num_phys = !num_phys; chain_couplers }

let edge_coupler t i j =
  let k = slot t (min i j) in
  if k < 0 then None
  else
    Option.map
      (fun (qi, qj) -> if i < j then (qi, qj) else (qj, qi))
      (List.assoc_opt (max i j) t.couplers.(k))

let qubits_used t = Array.fold_left (fun acc c -> acc + Array.length c) 0 t.chains

let avg_chain_length t =
  if t.chains = [||] then 0.
  else float_of_int (qubits_used t) /. float_of_int (Array.length t.chains)

let validate t ~edges =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  try
    (* chains non-empty and disjoint *)
    let owner = Array.make (Chimera.Graph.num_qubits t.graph) (-1) in
    Array.iteri
      (fun k chain ->
        if chain = [||] then bad "node %d has empty chain" t.nodes.(k);
        Array.iter
          (fun q ->
            if owner.(q) >= 0 then
              bad "qubit %d in chains of %d and %d" q t.nodes.(owner.(q)) t.nodes.(k);
            owner.(q) <- k)
          chain)
      t.chains;
    (* connected: a flood from a chain's first qubit, unmarking what it
       reaches, counts every qubit of the chain *)
    Array.iteri
      (fun k chain ->
        let rec flood q =
          if owner.(q) <> k then 0
          else begin
            owner.(q) <- -1;
            List.fold_left (fun n q' -> n + flood q') 1 (Chimera.Graph.neighbors t.graph q)
          end
        in
        if flood chain.(0) <> Array.length chain then
          bad "chain of node %d not connected" t.nodes.(k))
      t.chains;
    (* every edge realised by its registered coupler *)
    List.iter
      (fun (i, j) ->
        List.iter
          (fun v -> if slot t v < 0 then bad "edge (%d,%d): node %d unembedded" i j v)
          [ i; j ];
        match edge_coupler t i j with
        | None -> bad "edge (%d,%d): no registered coupler" i j
        | Some (qi, qj) ->
            if not (Chimera.Graph.adjacent t.graph qi qj) then
              bad "edge (%d,%d): %d-%d not a coupler" i j qi qj)
      edges;
    Ok ()
  with Bad s -> Error s
