(** Minorminer-style iterative minor embedding (baseline, paper [11]).

    A simplified reimplementation of the Cai–Macready–Roy heuristic: nodes
    are embedded one at a time by growing a chain from Dijkstra shortest
    paths to the already-embedded neighbour chains, with occupied qubits
    heavily penalised; full rounds of re-embedding repair overlaps.  The
    iterative routing is what gives the polynomial runtime the paper's
    Fig. 13(a) contrasts with HyQSAT's linear scheme. *)

type outcome = { embedding : Embed.Embedding.t option; rounds_used : int }

val embed :
  ?seed:int ->
  ?max_rounds:int ->
  ?timeout_s:float ->
  Chimera.Graph.t ->
  nodes:int list ->
  edges:(int * int) list ->
  outcome
(** [embed g ~nodes ~edges] returns a valid embedding or [None] on failure
    (overlaps not resolved within [max_rounds] (default 16) or [timeout_s]
    (default 300 s of wall-clock, the paper's Fig. 13 timeout) exceeded). *)
