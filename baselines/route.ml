module Pq = struct
  (* tiny binary min-heap of (priority, value) *)
  type t = { mutable data : (float * int) array; mutable size : int }

  let create () = { data = Array.make 64 (0., 0); size = 0 }

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h prio v =
    if h.size = Array.length h.data then begin
      let data = Array.make (2 * h.size) (0., 0) in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end;
    h.data.(h.size) <- (prio, v);
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let best = ref !i in
        if l < h.size && fst h.data.(l) < fst h.data.(!best) then best := l;
        if r < h.size && fst h.data.(r) < fst h.data.(!best) then best := r;
        if !best = !i then continue := false
        else begin
          swap h !i !best;
          i := !best
        end
      done;
      Some top
    end
end

let dijkstra g ~cost ~sources =
  let n = Chimera.Graph.num_qubits g in
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let pq = Pq.create () in
  List.iter
    (fun s ->
      dist.(s) <- 0.;
      Pq.push pq 0. s)
    sources;
  let rec drain () =
    match Pq.pop pq with
    | None -> ()
    | Some (d, q) ->
        if d <= dist.(q) then
          List.iter
            (fun nb ->
              let d' = d +. cost nb in
              if d' < dist.(nb) then begin
                dist.(nb) <- d';
                parent.(nb) <- q;
                Pq.push pq d' nb
              end)
            (Chimera.Graph.neighbors g q);
        drain ()
  in
  drain ();
  (dist, parent)

let walk_back ~parent target =
  let rec go q acc = if q = -1 then acc else go parent.(q) (q :: acc) in
  List.rev (go target [])

let bfs_path g ~passable ~sources ~targets =
  let n = Chimera.Graph.num_qubits g in
  let parent = Array.make n (-2) in
  (* -2 unvisited, -1 source *)
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if parent.(s) = -2 then begin
        parent.(s) <- -1;
        Queue.push s queue
      end)
    sources;
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    List.iter
      (fun nb ->
        if !found = None && parent.(nb) = -2 then
          if targets nb then begin
            parent.(nb) <- q;
            found := Some nb
          end
          else if passable nb then begin
            parent.(nb) <- q;
            Queue.push nb queue
          end)
      (Chimera.Graph.neighbors g q)
  done;
  Option.map
    (fun target ->
      let rec collect q acc = if parent.(q) = -1 then q :: acc else collect parent.(q) (q :: acc) in
      collect target [])
    !found

let first_coupler g ci cj =
  List.find_map
    (fun qi -> Option.map (fun qj -> (qi, qj)) (List.find_opt (Chimera.Graph.adjacent g qi) cj))
    ci

let placement g chains ~edges =
  let chain v = Option.value ~default:[] (Hashtbl.find_opt chains v) in
  let couplers =
    List.filter_map
      (fun (i, j) -> Option.map (fun c -> ((i, j), c)) (first_coupler g (chain i) (chain j)))
      edges
  in
  if List.compare_lengths couplers edges < 0 then None
  else
    Some
      (Embed.Embedding.make g
         ~chains:(Hashtbl.fold (fun node c acc -> (node, c) :: acc) chains [])
         ~couplers)
