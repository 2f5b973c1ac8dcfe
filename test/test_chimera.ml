(* Tests for the Chimera hardware-graph model. *)

module G = Chimera.Graph

let counts () =
  let g = G.standard_2000q () in
  Alcotest.(check int) "2000q qubits" 2048 (G.num_qubits g);
  Alcotest.(check int) "vertical lines" 64 (G.num_vertical_lines g);
  Alcotest.(check int) "horizontal lines" 64 (G.num_horizontal_lines g);
  (* 16 per cell + 4 per inter-cell link in each direction *)
  let couplers = ref 0 in
  G.iter_couplers g (fun _ _ -> incr couplers);
  Alcotest.(check int) "couplers" ((256 * 16) + (15 * 16 * 4 * 2)) !couplers

let coords_roundtrip () =
  let g = G.create ~rows:3 ~cols:5 in
  for id = 0 to G.num_qubits g - 1 do
    Alcotest.(check int) "roundtrip" id (G.id_of_coords g (G.coords_of_id g id))
  done

(* non-square, so that rows and columns cannot be confused *)
let adjacency_symmetric_and_matches_neighbors () =
  let g = G.create ~rows:3 ~cols:4 in
  let n = G.num_qubits g in
  for a = 0 to n - 1 do
    let nbs = G.neighbors g a in
    List.iter
      (fun b ->
        Alcotest.(check bool) "adjacent" true (G.adjacent g a b);
        Alcotest.(check bool) "symmetric" true (G.adjacent g b a);
        Alcotest.(check bool) "reverse membership" true (List.mem a (G.neighbors g b)))
      nbs;
    for b = 0 to n - 1 do
      if G.adjacent g a b && not (List.mem b nbs) then Alcotest.failf "%d-%d not a neighbour" a b
    done;
    let upper = ref [] in
    G.iter_upper_neighbors g a (fun b -> upper := b :: !upper);
    Alcotest.(check (list int))
      "larger neighbours, ascending"
      (List.sort Int.compare (List.filter (fun b -> b > a) nbs))
      (List.rev !upper);
    (* no self loops *)
    Alcotest.(check bool) "no self loop" false (G.adjacent g a a)
  done

let cell_structure () =
  let g = G.create ~rows:2 ~cols:2 in
  (* vertical qubit 0 of cell (0,0): 4 in-cell + 1 downward neighbour *)
  let v0 = G.id_of_coords g { G.row = 0; col = 0; orientation = G.Vertical; index = 0 } in
  Alcotest.(check int) "corner vertical degree" 5 (List.length (G.neighbors g v0));
  (* in-cell coupling is bipartite: two vertical qubits never adjacent *)
  let v1 = G.id_of_coords g { G.row = 0; col = 0; orientation = G.Vertical; index = 1 } in
  Alcotest.(check bool) "no V-V in cell" false (G.adjacent g v0 v1)

let lines () =
  let g = G.create ~rows:4 ~cols:3 in
  let vl = 5 in
  (* column 1, index 1 *)
  let qubits = G.vertical_line_qubits g vl in
  Alcotest.(check int) "one qubit per row" 4 (List.length qubits);
  Alcotest.(check int) "line column" 1 (G.vline_col g vl);
  List.iter
    (fun q ->
      let c = G.coords_of_id g q in
      Alcotest.(check bool) "vertical" true (c.G.orientation = G.Vertical);
      Alcotest.(check int) "line of qubit" vl ((c.G.col * 4) + c.G.index))
    qubits;
  (* consecutive qubits of a line are coupled *)
  let rec consecutive = function
    | a :: b :: rest ->
        Alcotest.(check bool) "line coupler" true (G.adjacent g a b);
        consecutive (b :: rest)
    | _ -> ()
  in
  consecutive qubits;
  consecutive (G.horizontal_line_qubits g 6)

let crossings () =
  let g = G.create ~rows:4 ~cols:3 in
  for vl = 0 to G.num_vertical_lines g - 1 do
    for hl = 0 to G.num_horizontal_lines g - 1 do
      let vq, hq = G.crossing g ~vline:vl ~hline:hl in
      Alcotest.(check bool) "crossing coupled" true (G.adjacent g vq hq);
      Alcotest.(check bool) "vq on vline" true (List.mem vq (G.vertical_line_qubits g vl));
      Alcotest.(check bool) "hq on hline" true (List.mem hq (G.horizontal_line_qubits g hl))
    done
  done

let suite =
  [
    ( "chimera.graph",
      [
        Alcotest.test_case "2000q counts" `Quick counts;
        Alcotest.test_case "coords roundtrip" `Quick coords_roundtrip;
        Alcotest.test_case "adjacency symmetric" `Quick adjacency_symmetric_and_matches_neighbors;
        Alcotest.test_case "cell structure" `Quick cell_structure;
        Alcotest.test_case "lines" `Quick lines;
        Alcotest.test_case "crossings" `Quick crossings;
      ] );
  ]
