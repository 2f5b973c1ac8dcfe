(* BFS order over the problem graph, for placement locality *)
let bfs_order nodes edges =
  let nbrs = Hashtbl.create 64 in
  let add a b =
    Hashtbl.replace nbrs a (b :: Option.value ~default:[] (Hashtbl.find_opt nbrs a))
  in
  List.iter
    (fun (a, b) ->
      add a b;
      add b a)
    edges;
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  let visit start =
    let q = Queue.create () in
    if not (Hashtbl.mem seen start) then begin
      Hashtbl.replace seen start ();
      Queue.push start q
    end;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      order := u :: !order;
      List.iter
        (fun v ->
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.replace seen v ();
            Queue.push v q
          end)
        (Option.value ~default:[] (Hashtbl.find_opt nbrs u))
    done
  in
  List.iter visit nodes;
  List.rev !order

let embed ?(timeout_s = 300.) g ~nodes ~edges =
  let t0 = Unix.gettimeofday () in
  let nq = Chimera.Graph.num_qubits g in
  let used = Array.make nq false in
  let chains = Hashtbl.create 64 in
  let owner = Array.make nq (-1) in
  let claim node q =
    used.(q) <- true;
    owner.(q) <- node;
    Hashtbl.replace chains node (q :: Option.value ~default:[] (Hashtbl.find_opt chains node))
  in
  (* placement: each node seeds a vertical+horizontal qubit pair of its own
     cell (the pair is coupled, and the horizontal qubit keeps a corridor
     exit open even when neighbouring cells fill up); cells are taken at
     stride 2 while the node count allows, to spread congestion *)
  let order = bfs_order nodes edges in
  let n_cells = nq / 8 in
  let stride = if List.length order * 2 <= n_cells then 2 else 1 in
  let placement_ok =
    let next = ref 0 in
    let rec place = function
      | [] -> true
      | node :: rest ->
          let cell = !next * stride in
          if cell >= n_cells then false
          else begin
            claim node (cell * 8);
            (* first horizontal qubit of the same cell *)
            claim node ((cell * 8) + 4);
            incr next;
            place rest
          end
    in
    place order
  in
  if not placement_ok then None
  else begin
    let failed = ref false in
    List.iter
      (fun (i, j) ->
        if (not !failed) && Unix.gettimeofday () -. t0 <= timeout_s then begin
          let ci = Hashtbl.find chains i in
          let cj = Hashtbl.find chains j in
          if Route.first_coupler g ci cj = None then
            match
              Route.bfs_path g
                ~passable:(fun q -> not used.(q))
                ~sources:ci
                ~targets:(fun q -> used.(q) && owner.(q) = j)
            with
            | None -> failed := true
            | Some path ->
                (* interior of the path joins i's chain; endpoints already
                   belong to the two chains *)
                let interior =
                  List.filter (fun q -> not used.(q)) path
                in
                List.iter (claim i) interior
        end
        else if Unix.gettimeofday () -. t0 > timeout_s then failed := true)
      edges;
    if !failed then None else Route.placement g chains ~edges
  end
