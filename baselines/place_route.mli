(** Place-and-route baseline embedder (paper [8]).

    Mirrors the classical circuit-mapping flow the paper attributes to Bian
    et al.: every problem node is {e placed} on a seed qubit in grid order
    (problem-graph BFS order for locality), then every problem edge is
    {e routed} as a BFS path through free qubits, the interior being absorbed
    into the source chain.  Heavy qubit consumption per route is what caps
    this scheme at the lowest clause capacity in Fig. 13(b). *)

val embed :
  ?timeout_s:float ->
  Chimera.Graph.t ->
  nodes:int list ->
  edges:(int * int) list ->
  Embed.Embedding.t option
(** A valid embedding, or [None] when placement runs out of cells, some
    edge cannot be routed through the remaining free qubits, or the run
    exceeds [timeout_s] wall-clock seconds (default 300 s, the paper's
    Fig. 13 timeout; checked before each edge is routed). *)
