(** Shortest-path routing over the Chimera qubit graph and the coupler
    search between two chains, shared by the Minorminer-like and
    place-and-route baseline embedders. *)

val dijkstra :
  Chimera.Graph.t -> cost:(int -> float) -> sources:int list -> float array * int array
(** [dijkstra g ~cost ~sources] returns [(dist, parent)] over all qubits,
    where entering qubit [q] costs [cost q] (must be ≥ 0; sources enter free).
    [parent.(q) = -1] for sources and unreachable qubits. *)

val walk_back : parent:int array -> int -> int list
(** Path from a target back to its source (inclusive), using the parent
    array. *)

val bfs_path :
  Chimera.Graph.t -> passable:(int -> bool) -> sources:int list -> targets:(int -> bool) ->
  int list option
(** Unweighted BFS from [sources] through [passable] qubits to the first
    qubit satisfying [targets]; the returned path starts at a source and ends
    at the target.  Targets need not be passable. *)

val first_coupler : Chimera.Graph.t -> int list -> int list -> (int * int) option
(** [first_coupler g ci cj] is the first hardware coupler [(qi, qj)] with
    [qi] in [ci] and [qj] in [cj], scanning [ci] then [cj] in list order. *)

val placement :
  Chimera.Graph.t -> (int, int list) Hashtbl.t -> edges:(int * int) list ->
  Embed.Embedding.t option
(** [placement g chains ~edges] is the placement of the node → chain
    table [chains] with each problem edge on its {!first_coupler}, or
    [None] when some edge's chains have no coupler between them. *)
