type t = {
  embedding : Embedding.t;
  embedded_clauses : int;
}

(* per-clause transactionality is implemented with an undo journal: every
   mutation pushes its inverse, and a failed clause replays the journal.
   (A snapshot-copy approach costs O(hardware) per clause; the journal is
   O(changes), which keeps the whole embedding linear.) *)
type undo =
  | U_vline of int  (** node whose vertical line to revoke *)
  | U_hused of int * int  (** (hline, column) to free *)
  | U_rows of int * int list  (** node's previous rows_needed *)
  | U_segs of int * (int * int * int) list option  (** node's previous segments *)
  | U_edge of int * int  (** edge to un-register *)

type state = {
  graph : Chimera.Graph.t;
  vline_of_node : (int, int) Hashtbl.t;
  mutable next_vline : int;
  hline_used : bool array array; (* hline -> column -> used *)
  rows_needed : (int, int list) Hashtbl.t;
  segments : (int, (int * int * int) list) Hashtbl.t; (* node -> (hline, c1, c2) *)
  edges_done : (int * int, int * int) Hashtbl.t; (* edge -> physical coupler *)
  mutable journal : undo list;
}

let norm_edge i j = if i < j then (i, j) else (j, i)

let rollback st =
  List.iter
    (function
      | U_vline node ->
          Hashtbl.remove st.vline_of_node node;
          st.next_vline <- st.next_vline - 1
      | U_hused (hl, c) -> st.hline_used.(hl).(c) <- false
      | U_rows (node, prev) -> Hashtbl.replace st.rows_needed node prev
      | U_segs (node, Some prev) -> Hashtbl.replace st.segments node prev
      | U_segs (node, None) -> Hashtbl.remove st.segments node
      | U_edge (i, j) -> Hashtbl.remove st.edges_done (i, j))
    st.journal;
  st.journal <- []

let commit st = st.journal <- []

(* bottom-up order of horizontal lines: highest row first, then index *)
let hline_order g =
  let n = Chimera.Graph.num_horizontal_lines g in
  List.sort
    (fun a b ->
      let ra = Chimera.Graph.hline_row g a and rb = Chimera.Graph.hline_row g b in
      if ra <> rb then compare rb ra else compare a b)
    (List.init n Fun.id)

let add_row st v row =
  let cur = Option.value ~default:[] (Hashtbl.find_opt st.rows_needed v) in
  st.journal <- U_rows (v, cur) :: st.journal;
  Hashtbl.replace st.rows_needed v (row :: cur)

let add_segment st node seg =
  let prev = Hashtbl.find_opt st.segments node in
  st.journal <- U_segs (node, prev) :: st.journal;
  Hashtbl.replace st.segments node (seg :: Option.value ~default:[] prev)

let replace_segment st node ~old_seg ~new_seg =
  let prev = Hashtbl.find st.segments node in
  st.journal <- U_segs (node, Some prev) :: st.journal;
  Hashtbl.replace st.segments node
    (List.map (fun seg -> if seg = old_seg then new_seg else seg) prev)

let claim_column st hl c =
  st.hline_used.(hl).(c) <- true;
  st.journal <- U_hused (hl, c) :: st.journal

(* connection requirement: key node and the distinct target nodes it must
   reach via one horizontal segment *)
type requirement = { key : int; key_has_vline : bool; targets : int list }

let requirement_columns st req =
  let cols =
    List.map
      (fun y -> Chimera.Graph.vline_col st.graph (Hashtbl.find st.vline_of_node y))
      req.targets
  in
  let cols =
    if req.key_has_vline then
      Chimera.Graph.vline_col st.graph (Hashtbl.find st.vline_of_node req.key) :: cols
    else cols
  in
  (List.fold_left min (List.hd cols) cols, List.fold_left max (List.hd cols) cols)

(* register the crossings of a placed/extended segment *)
let register_targets st req hl =
  let row = Chimera.Graph.hline_row st.graph hl in
  if req.key_has_vline then add_row st req.key row;
  List.iter
    (fun y ->
      let vl = Hashtbl.find st.vline_of_node y in
      let vq, hq = Chimera.Graph.crossing st.graph ~vline:vl ~hline:hl in
      add_row st y row;
      (* orient the coupler as (qubit of min node, qubit of max node) *)
      let coupler = if req.key < y then (hq, vq) else (vq, hq) in
      let key = norm_edge req.key y in
      st.journal <- U_edge (fst key, snd key) :: st.journal;
      Hashtbl.replace st.edges_done key coupler)
    req.targets

(* try to place one requirement: first by extending one of the key's
   existing segments along its line (cheap, keeps chains short), else on the
   lowest horizontal line with a free stretch; false when nothing fits *)
let place_requirement st ~order req =
  let c1, c2 = requirement_columns st req in
  let try_extend () =
    let segs = Option.value ~default:[] (Hashtbl.find_opt st.segments req.key) in
    let extendable ((hl, s1, s2) as seg) =
      let lo = min c1 s1 and hi = max c2 s2 in
      let used = st.hline_used.(hl) in
      let rec free c = c > hi || (((c >= s1 && c <= s2) || not used.(c)) && free (c + 1)) in
      if free lo then Some (seg, lo, hi) else None
    in
    List.find_map extendable segs
  in
  match try_extend () with
  | Some (((hl, s1, s2) as old_seg), lo, hi) ->
      for c = lo to hi do
        if not (c >= s1 && c <= s2) then claim_column st hl c
      done;
      replace_segment st req.key ~old_seg ~new_seg:(hl, lo, hi);
      register_targets st req hl;
      true
  | None -> (
      let fits hl =
        let used = st.hline_used.(hl) in
        let rec free c = c > c2 || ((not used.(c)) && free (c + 1)) in
        free c1
      in
      match List.find_opt fits order with
      | None -> false
      | Some hl ->
          for c = c1 to c2 do
            claim_column st hl c
          done;
          add_segment st req.key (hl, c1, c2);
          register_targets st req hl;
          true)

(* requirements induced by one encoded clause; aux = -1 when none.  The
   problem-graph edges of Equation 4 are (v1,v2) and (a,v1) (a,v2) (a,v3);
   for ≤2-literal clauses just (v1,v2). *)
let clause_requirements st clause aux =
  let fresh_edge i j = (not (i = j)) && not (Hashtbl.mem st.edges_done (norm_edge i j)) in
  match (List.map Sat.Lit.var (Sat.Clause.lits clause), aux) with
  | [ v1; v2; v3 ], a when a >= 0 ->
      let var_req =
        if fresh_edge v1 v2 then [ { key = v1; key_has_vline = true; targets = [ v2 ] } ]
        else []
      in
      let aux_targets =
        List.filter (fun v -> fresh_edge a v) (List.sort_uniq Int.compare [ v1; v2; v3 ])
      in
      let aux_req =
        if aux_targets = [] then []
        else [ { key = a; key_has_vline = false; targets = aux_targets } ]
      in
      var_req @ aux_req
  | [ v1; v2 ], _ ->
      if fresh_edge v1 v2 then [ { key = v1; key_has_vline = true; targets = [ v2 ] } ] else []
  | _ -> []

(* allocate vertical lines for the clause's unseen variables *)
let allocate_vlines st clause =
  let needed =
    List.filter (fun v -> not (Hashtbl.mem st.vline_of_node v)) (Sat.Clause.vars clause)
  in
  if st.next_vline + List.length needed > Chimera.Graph.num_vertical_lines st.graph then false
  else begin
    List.iter
      (fun v ->
        Hashtbl.replace st.vline_of_node v st.next_vline;
        st.next_vline <- st.next_vline + 1;
        st.journal <- U_vline v :: st.journal)
      needed;
    true
  end

(* the qubits of a horizontal line between columns [c1] and [c2] *)
let segment_qubits g (hl, c1, c2) =
  List.filteri (fun c _ -> c >= c1 && c <= c2) (Chimera.Graph.horizontal_line_qubits g hl)

let build_embedding st =
  let segments node = Option.value ~default:[] (Hashtbl.find_opt st.segments node) in
  (* variables: contiguous vertical run covering every needed row, plus own
     horizontal segments *)
  let variables =
    Hashtbl.fold
      (fun node vl acc ->
        let rows = Option.value ~default:[] (Hashtbl.find_opt st.rows_needed node) in
        let rmin, rmax =
          match rows with
          | [] -> (0, 0)
          | r :: rest -> (List.fold_left min r rest, List.fold_left max r rest)
        in
        let vqubits =
          List.filteri
            (fun r _ -> r >= rmin && r <= rmax)
            (Chimera.Graph.vertical_line_qubits st.graph vl)
        in
        (node, vqubits @ List.concat_map (segment_qubits st.graph) (segments node)) :: acc)
      st.vline_of_node []
  in
  (* auxiliaries: horizontal segments only *)
  let chains =
    Hashtbl.fold
      (fun node segs acc ->
        if Hashtbl.mem st.vline_of_node node then acc
        else (node, List.concat_map (segment_qubits st.graph) segs) :: acc)
      st.segments variables
  in
  let couplers = Hashtbl.fold (fun e c acc -> (e, c) :: acc) st.edges_done [] in
  Embedding.make st.graph ~chains ~couplers

let embed graph clauses ~aux_of_clause =
  if Array.length aux_of_clause <> Array.length clauses then
    invalid_arg "Hyqsat_scheme.embed: aux_of_clause length";
  let st =
    {
      graph;
      vline_of_node = Hashtbl.create 64;
      next_vline = 0;
      hline_used =
        Array.init (Chimera.Graph.num_horizontal_lines graph) (fun _ ->
            Array.make (Chimera.Graph.cols graph) false);
      rows_needed = Hashtbl.create 64;
      segments = Hashtbl.create 64;
      edges_done = Hashtbl.create 256;
      journal = [];
    }
  in
  let order = hline_order graph in
  let n_clauses = Array.length clauses in
  let rec go k =
    if k >= n_clauses then k
    else
      let clause = clauses.(k) in
      let aux = aux_of_clause.(k) in
      let ok =
        allocate_vlines st clause
        && List.for_all (place_requirement st ~order) (clause_requirements st clause aux)
      in
      if ok then begin
        commit st;
        go (k + 1)
      end
      else begin
        rollback st;
        k
      end
  in
  let embedded_clauses = go 0 in
  { embedding = build_embedding st; embedded_clauses }

let capacity_estimate graph =
  (* horizontal qubits bound segment space (~4 columns per clause across the
     aux and variable segments); variables are bounded separately by the
     vertical lines, which the clause-queue generator's var budget enforces *)
  let h_qubits = Chimera.Graph.num_horizontal_lines graph * Chimera.Graph.cols graph in
  h_qubits / 4
