type t = { rows : int; cols : int }

type orientation = Vertical | Horizontal

type qubit_coords = { row : int; col : int; orientation : orientation; index : int }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Chimera.Graph.create";
  { rows; cols }

let standard_2000q () = create ~rows:16 ~cols:16
let rows t = t.rows
let cols t = t.cols
let num_qubits t = t.rows * t.cols * 8

let id_of_coords t { row; col; orientation; index } =
  if row < 0 || row >= t.rows || col < 0 || col >= t.cols || index < 0 || index > 3 then
    invalid_arg "Chimera.Graph.id_of_coords";
  (((row * t.cols) + col) * 8) + (match orientation with Vertical -> 0 | Horizontal -> 4) + index

let coords_of_id t id =
  if id < 0 || id >= num_qubits t then invalid_arg "Chimera.Graph.coords_of_id";
  let cell = id / 8 and rest = id mod 8 in
  {
    row = cell / t.cols;
    col = cell mod t.cols;
    orientation = (if rest < 4 then Vertical else Horizontal);
    index = rest mod 4;
  }

(* on qubit ids, without coordinate records; placements list their chain
   couplers, so no annealer call asks this per chain pair any more.
   [id mod 8] is orientation·4 + index, so two qubits of the same
   orientation share an index iff it is equal *)
let adjacent t a b =
  if a = b then false
  else
    let n = num_qubits t in
    if a < 0 || a >= n || b < 0 || b >= n then invalid_arg "Chimera.Graph.coords_of_id";
    let cell_a = a / 8 and cell_b = b / 8 in
    let rest_a = a mod 8 and rest_b = b mod 8 in
    let vertical_a = rest_a < 4 and vertical_b = rest_b < 4 in
    if vertical_a <> vertical_b then (* in-cell K4,4 coupler *) cell_a = cell_b
    else if rest_a <> rest_b then false
    else
      let row_a = cell_a / t.cols and row_b = cell_b / t.cols in
      let col_a = cell_a mod t.cols and col_b = cell_b mod t.cols in
      if vertical_a then col_a = col_b && abs (row_a - row_b) = 1
      else row_a = row_b && abs (col_a - col_b) = 1

let neighbors t id =
  let c = coords_of_id t id in
  let acc = ref [] in
  let push coords = acc := id_of_coords t coords :: !acc in
  (match c.orientation with
  | Vertical ->
      for k = 0 to 3 do
        push { c with orientation = Horizontal; index = k }
      done;
      if c.row > 0 then push { c with row = c.row - 1 };
      if c.row < t.rows - 1 then push { c with row = c.row + 1 }
  | Horizontal ->
      for k = 0 to 3 do
        push { c with orientation = Vertical; index = k }
      done;
      if c.col > 0 then push { c with col = c.col - 1 };
      if c.col < t.cols - 1 then push { c with col = c.col + 1 });
  List.rev !acc

let num_vertical_lines t = t.cols * 4
let num_horizontal_lines t = t.rows * 4
let vline_col _ vl = vl / 4
let hline_row _ hl = hl / 4

let vertical_line_qubits t vl =
  if vl < 0 || vl >= num_vertical_lines t then invalid_arg "vertical_line_qubits";
  let col = vl / 4 and index = vl mod 4 in
  List.init t.rows (fun row -> id_of_coords t { row; col; orientation = Vertical; index })

let horizontal_line_qubits t hl =
  if hl < 0 || hl >= num_horizontal_lines t then invalid_arg "horizontal_line_qubits";
  let row = hl / 4 and index = hl mod 4 in
  List.init t.cols (fun col -> id_of_coords t { row; col; orientation = Horizontal; index })

let crossing t ~vline ~hline =
  let col = vline / 4 and vk = vline mod 4 in
  let row = hline / 4 and hk = hline mod 4 in
  ( id_of_coords t { row; col; orientation = Vertical; index = vk },
    id_of_coords t { row; col; orientation = Horizontal; index = hk } )

(* a vertical qubit's larger neighbours are its cell's horizontal qubits,
   then the one below; a horizontal qubit's is the one to its right *)
let iter_upper_neighbors t id f =
  let cell = id / 8 in
  if id mod 8 < 4 then begin
    for k = 4 to 7 do
      f ((cell * 8) + k)
    done;
    if cell / t.cols < t.rows - 1 then f (id + (8 * t.cols))
  end
  else if cell mod t.cols < t.cols - 1 then f (id + 8)

let iter_couplers t f =
  for id = 0 to num_qubits t - 1 do
    iter_upper_neighbors t id (f id)
  done
