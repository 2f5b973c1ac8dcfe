(** The paper's Table I benchmark suite: 14 benchmarks from 7 domains, each
    backed by one of this library's generators.

    Every spec generates at two scales: [`Paper] approximates the var/clause
    counts of Table I; [`Small] keeps the same structure at a size where a
    whole 14-benchmark experiment finishes in seconds (the bench harness's
    default). *)

type scale = [ `Small | `Paper ]

type t = {
  id : string;  (** e.g. "AI3" *)
  domain : string;  (** e.g. "Artificial Intelligence" *)
  name : string;  (** e.g. "UF200-860" *)
  problems : int;  (** instances per benchmark in Table I *)
  generate : Stats.Rng.t -> scale -> Sat.Cnf.t;
  generate_weighted : (Stats.Rng.t -> scale -> Sat.Wcnf.t) option;
      (** Weighted-MaxSAT variant, for the benchmarks whose domain has a
          natural objective: graph colouring (soft extra edges) and block
          planning (soft move penalties).  [None] elsewhere. *)
}

val table1 : t list
(** GC1 GC2 GC3 CFA BP II IF1 IF2 CRY AI1 AI2 AI3 AI4 AI5, in Table I
    order. *)

