type outcome = { embedding : Embed.Embedding.t option; rounds_used : int }

(* occupancy-penalised qubit entry cost: free qubits cost 1, every extra
   chain already on the qubit multiplies the cost, pushing routes apart *)
let entry_cost occupancy q =
  let occ = occupancy.(q) in
  if occ = 0 then 1.0 else 16.0 ** float_of_int occ

let neighbors_of edges =
  let tbl = Hashtbl.create 64 in
  let add a b =
    let cur = Option.value ~default:[] (Hashtbl.find_opt tbl a) in
    if not (List.mem b cur) then Hashtbl.replace tbl a (b :: cur)
  in
  List.iter
    (fun (a, b) ->
      add a b;
      add b a)
    edges;
  tbl

let embed ?(seed = 7) ?(max_rounds = 16) ?(timeout_s = 300.) g ~nodes ~edges =
  let rng = Stats.Rng.create ~seed in
  let t0 = Unix.gettimeofday () in
  let nq = Chimera.Graph.num_qubits g in
  let occupancy = Array.make nq 0 in
  let chains : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let nbrs = neighbors_of edges in
  let claim q = occupancy.(q) <- occupancy.(q) + 1 in
  let release q = occupancy.(q) <- occupancy.(q) - 1 in
  let set_chain node qubits =
    (match Hashtbl.find_opt chains node with
    | Some old -> List.iter release old
    | None -> ());
    Hashtbl.replace chains node qubits;
    List.iter claim qubits
  in
  (* (re-)embed one node against the current chains of its neighbours *)
  let embed_node node =
    (match Hashtbl.find_opt chains node with
    | Some old ->
        List.iter release old;
        Hashtbl.remove chains node
    | None -> ());
    let embedded_nbrs =
      List.filter_map
        (fun v -> Option.map (fun c -> (v, c)) (Hashtbl.find_opt chains v))
        (Option.value ~default:[] (Hashtbl.find_opt nbrs node))
    in
    if embedded_nbrs = [] then begin
      (* seed somewhere empty-ish *)
      let q = ref (Stats.Rng.int rng nq) in
      let tries = ref 0 in
      while occupancy.(!q) > 0 && !tries < 64 do
        q := Stats.Rng.int rng nq;
        incr tries
      done;
      set_chain node [ !q ]
    end
    else begin
      let runs =
        List.map
          (fun (_, c) -> Route.dijkstra g ~cost:(entry_cost occupancy) ~sources:c)
          embedded_nbrs
      in
      (* root minimising the total distance to every neighbour chain *)
      let best_root = ref (-1) and best_cost = ref infinity in
      for q = 0 to nq - 1 do
        let total =
          List.fold_left (fun acc (dist, _) -> acc +. dist.(q)) (entry_cost occupancy q) runs
        in
        if total < !best_cost then begin
          best_cost := total;
          best_root := q
        end
      done;
      if !best_root < 0 || !best_cost = infinity then ()
      else begin
        let chain = ref [ !best_root ] in
        List.iter
          (fun (_, parent) ->
            (* path from the root back into the neighbour chain; the last
               element lies in the neighbour chain and is not claimed *)
            let path = Route.walk_back ~parent !best_root in
            let path = List.rev path in
            match path with
            | [] -> ()
            | _ :: interior -> chain := interior @ !chain)
          runs;
        set_chain node (List.sort_uniq Int.compare !chain)
      end
    end
  in
  let order = Array.of_list nodes in
  Stats.Rng.shuffle rng order;
  let overlaps () = Array.exists (fun o -> o > 1) occupancy in
  let all_embedded () = List.for_all (Hashtbl.mem chains) nodes in
  let rounds = ref 0 in
  let timed_out = ref false in
  while
    (!rounds = 0 || overlaps () || not (all_embedded ()))
    && !rounds < max_rounds
    && not !timed_out
  do
    incr rounds;
    Array.iter
      (fun node ->
        if Unix.gettimeofday () -. t0 > timeout_s then timed_out := true else embed_node node)
      order
  done;
  if !timed_out || overlaps () || not (all_embedded ()) then
    { embedding = None; rounds_used = !rounds }
  else { embedding = Route.placement g chains ~edges; rounds_used = !rounds }
