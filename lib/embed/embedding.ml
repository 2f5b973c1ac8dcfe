type t = {
  graph : Chimera.Graph.t;
  chains : (int, int list) Hashtbl.t;
  edge_couplers : (int * int, int * int) Hashtbl.t;
}

let create graph = { graph; chains = Hashtbl.create 64; edge_couplers = Hashtbl.create 64 }

let nodes t = List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.chains [])
let chain t node = Hashtbl.find_opt t.chains node
let set_chain t node qubits = Hashtbl.replace t.chains node (List.sort_uniq Int.compare qubits)

let norm i j qi qj = if i < j then ((i, j), (qi, qj)) else ((j, i), (qj, qi))

let set_edge_coupler t i j (qi, qj) =
  let key, v = norm i j qi qj in
  Hashtbl.replace t.edge_couplers key v

let edge_coupler t i j =
  let key = if i < j then (i, j) else (j, i) in
  Hashtbl.find_opt t.edge_couplers key

let qubits_used t = Hashtbl.fold (fun _ c acc -> acc + List.length c) t.chains 0
let chain_lengths t = Hashtbl.fold (fun _ c acc -> List.length c :: acc) t.chains []

let avg_chain_length t =
  let ls = chain_lengths t in
  if ls = [] then 0.
  else float_of_int (List.fold_left ( + ) 0 ls) /. float_of_int (List.length ls)

let chain_connected graph qubits =
  match qubits with
  | [] -> false
  | root :: _ ->
      let members = Hashtbl.create 8 in
      List.iter (fun q -> Hashtbl.replace members q ()) qubits;
      let visited = Hashtbl.create 8 in
      let rec dfs q =
        if not (Hashtbl.mem visited q) then begin
          Hashtbl.replace visited q ();
          List.iter
            (fun nb -> if Hashtbl.mem members nb then dfs nb)
            (Chimera.Graph.neighbors graph q)
        end
      in
      dfs root;
      Hashtbl.length visited = List.length qubits

let validate t ~edges =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let exception Bad of string in
  try
    (* chains non-empty, disjoint, connected *)
    let owner = Hashtbl.create 64 in
    Hashtbl.iter
      (fun node qubits ->
        if qubits = [] then raise (Bad (Printf.sprintf "node %d has empty chain" node));
        List.iter
          (fun q ->
            match Hashtbl.find_opt owner q with
            | Some other ->
                raise (Bad (Printf.sprintf "qubit %d in chains of %d and %d" q other node))
            | None -> Hashtbl.replace owner q node)
          qubits;
        if not (chain_connected t.graph qubits) then
          raise (Bad (Printf.sprintf "chain of node %d not connected" node)))
      t.chains;
    (* every edge realised *)
    List.iter
      (fun (i, j) ->
        let ci = Hashtbl.find_opt t.chains i and cj = Hashtbl.find_opt t.chains j in
        match (ci, cj) with
        | None, _ -> raise (Bad (Printf.sprintf "edge (%d,%d): node %d unembedded" i j i))
        | _, None -> raise (Bad (Printf.sprintf "edge (%d,%d): node %d unembedded" i j j))
        | Some ci, Some cj -> (
            match edge_coupler t i j with
            | Some (qi, qj) ->
                if not (List.mem qi ci) then
                  raise (Bad (Printf.sprintf "edge (%d,%d): %d not in chain of %d" i j qi i));
                if not (List.mem qj cj) then
                  raise (Bad (Printf.sprintf "edge (%d,%d): %d not in chain of %d" i j qj j));
                if not (Chimera.Graph.adjacent t.graph qi qj) then
                  raise (Bad (Printf.sprintf "edge (%d,%d): %d-%d not a coupler" i j qi qj))
            | None ->
                let ok =
                  List.exists
                    (fun qi -> List.exists (fun qj -> Chimera.Graph.adjacent t.graph qi qj) cj)
                    ci
                in
                if not ok then
                  raise (Bad (Printf.sprintf "edge (%d,%d): no coupler between chains" i j))))
      edges;
    Ok ()
  with Bad s -> err "%s" s
