(** Chimera hardware graph (D-Wave 2000Q topology, paper §II-D and Fig. 3).

    A [rows × cols] grid of cells; each cell holds 4 {e vertical} and 4
    {e horizontal} qubits forming a complete bipartite K4,4 through the
    cell's internal ("diagonal") couplers.  Same-index vertical qubits of
    vertically adjacent cells are coupled, chaining into {e vertical lines}
    that span a column; likewise horizontal qubits chain into {e horizontal
    lines} spanning a row.  D-Wave 2000Q is the 16×16 instance (2048
    qubits).

    Qubit ids are dense integers; lines have their own dense ids:
    vertical line [(col, k)] has id [col*4 + k], horizontal line [(row, k)]
    id [row*4 + k]. *)

type t

type orientation = Vertical | Horizontal

type qubit_coords = { row : int; col : int; orientation : orientation; index : int }
(** [index] is the 0–3 position within the cell's vertical or horizontal
    group. *)

val create : rows:int -> cols:int -> t
val standard_2000q : unit -> t
(** The 16×16 D-Wave 2000Q graph. *)

val cols : t -> int
val num_qubits : t -> int

val id_of_coords : t -> qubit_coords -> int
val coords_of_id : t -> int -> qubit_coords

val adjacent : t -> int -> int -> bool
(** Whether a coupler exists between two qubits. *)

val neighbors : t -> int -> int list

val iter_upper_neighbors : t -> int -> (int -> unit) -> unit
(** [f] on each neighbour with a larger id, ascending, allocating nothing. *)

(** {2 Line abstraction (used by the HyQSAT embedder)} *)

val num_vertical_lines : t -> int
(** [cols × 4]. *)

val num_horizontal_lines : t -> int
(** [rows × 4]. *)

val vertical_line_qubits : t -> int -> int list
(** Qubits of a vertical line, top row first. *)

val horizontal_line_qubits : t -> int -> int list
(** Qubits of a horizontal line, leftmost column first. *)

val vline_col : t -> int -> int
(** Column of a vertical line. *)

val hline_row : t -> int -> int
(** Row of a horizontal line. *)

val crossing : t -> vline:int -> hline:int -> int * int
(** [(vqubit, hqubit)] at the unique cell where the two lines intersect;
    these two qubits are always coupled. *)

val iter_couplers : t -> (int -> int -> unit) -> unit
