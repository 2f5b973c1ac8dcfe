(** The pre-arena CDCL core, behaviourally frozen.

    Clause database as it was before {!Arena}: one heap record per clause
    with a boxed literal array, watch lists of clause pointers.  It runs
    the same blocker-literal watch scheme in the same evaluation order as
    {!Solver}, so both engines make bit-identical search decisions — the
    differential tests assert equal answers {e and} equal
    {!Solver.stats}, and [bench cdcl] uses this module as the baseline
    whose speedup isolates the arena representation.

    Deliberately minimal API (no proofs, instrumentation, hybrid hooks or
    clause interchange): enough surface to drive identical searches. *)

type t

type result = Sat.Answer.t =
  | Sat of bool array
  | Unsat
  | Unknown of Sat.Answer.reason

val create : ?config:Config.t -> Sat.Cnf.t -> t
val new_var : t -> Sat.Lit.var
val add_clause : t -> Sat.Lit.t list -> unit
val solve : ?max_conflicts:int -> ?max_iterations:int -> t -> result

val solve_with_assumptions :
  ?max_conflicts:int ->
  ?max_iterations:int ->
  t ->
  Sat.Lit.t list ->
  [ `Sat of bool array | `Unsat | `Unsat_assumptions | `Unknown ]

val unsat_core : t -> Sat.Lit.t list

val stats : t -> Solver.stats
(** Shares {!Solver.stats} so differential tests compare records directly. *)
