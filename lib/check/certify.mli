(** Certified answers: model-checked SAT, proof-checked UNSAT.

    The hybrid pipeline's strategy feedback (paper §IV-C) prunes the CDCL
    search with annealer guidance; this module makes the resulting answers
    independently checkable artifacts rather than trusted outputs.  A [Sat]
    answer is verified against the {e original} formula — before 3-SAT
    conversion, so auxiliary chain variables can never mask a wrong model —
    and an [Unsat] answer must come with a DRAT derivation that passes
    {!Sat.Drat.check} (reverse unit propagation ending in the empty
    clause). *)

(** What was actually verified about an answer. *)
type verdict =
  | Model_verified  (** SAT: the (projected) model satisfies the original formula *)
  | Proof_verified of int  (** UNSAT: the DRAT proof checked; payload = step count *)
  | Nothing_to_certify  (** Unknown outcome: no claim was made *)

val verdict_label : (verdict, string) result -> string
(** Stable telemetry strings: ["model"], ["proof"], [""] (nothing to
    certify) and ["failed: <reason>"]. *)

val check_model : original:Sat.Cnf.t -> bool array -> (unit, string) result
(** [check_model ~original m] succeeds iff [m] — truncated to the original
    variable count when it also assigns 3-SAT auxiliaries (the
    {!Sat.Three_sat.convert} layout keeps original variables first) —
    satisfies every clause of [original].  [Error] names a falsified
    clause. *)

val check_proof :
  ?should_stop:(unit -> bool) -> Sat.Cnf.t -> Sat.Drat.t -> (unit, string) result
(** [check_proof solved proof] is {!Sat.Drat.check} against the formula the
    solver actually ran on (post-conversion: UNSAT of the converted formula
    implies UNSAT of the original by equisatisfiability).  [should_stop] is
    polled once per lemma; a stopped check is an [Error]. *)

val certify :
  ?should_stop:(unit -> bool) ->
  original:Sat.Cnf.t ->
  solved:Sat.Cnf.t ->
  ?proof:Sat.Drat.t ->
  Cdcl.Solver.result ->
  (verdict, string) result
(** Certify one solver answer.  [solved] is the formula the solver saw
    (equal to [original] when no conversion happened); [proof] is required
    for an [Unsat] answer to certify.  [should_stop] reaches the proof
    check ({!check_proof}): once it fires the check ends with an [Error],
    never with the unchecked [Unsat] certified. *)

(** {2 Optimisation certificates} *)

type opt_verdict =
  | Cost_verified of int
      (** the model satisfies every hard clause and recomputes to the
          claimed cost; the optimality gap was still open *)
  | Optimality_verified of int
      (** additionally, an independent re-solve with the cost forced below
          the claim came back UNSAT — the model is proven optimal *)
  | Infeasibility_verified
      (** the hard clauses were independently re-proven unsatisfiable *)

val opt_verdict_label : (opt_verdict, string) result -> string
(** Stable telemetry strings: ["cost"], ["optimal"], ["infeasible"],
    ["failed: <reason>"]. *)

val certify_opt :
  ?max_conflicts:int ->
  ?should_stop:(unit -> bool) ->
  original:Sat.Wcnf.t ->
  Hyqsat.Optimize.result ->
  (opt_verdict, string) result
(** Certify an optimisation answer against the original WCNF.  The model's
    hard-satisfaction and cost are re-checked directly; an [Optimal] claim
    (gap = 0) is certified by re-encoding "cost ≤ best − 1" from scratch —
    hard clauses, selector-relaxed softs, binary-adder weighted counter
    ({!Sat.Cardinality.at_most_weight}) — and requiring a fresh CDCL solver
    to answer UNSAT.  [max_conflicts] bounds the re-solves and
    [should_stop] is installed as their terminate hook (so a daemon's
    cancel/drain switch reaches the certification re-solves too);
    exhausting either yields an [Error], never a silently weaker
    verdict. *)

(** {2 Certified solving} *)

type t = {
  report : Hyqsat.Hybrid_solver.report;  (** the raw solve report *)
  solved : Sat.Cnf.t;  (** formula the solver ran on (3-SAT-converted if needed) *)
  mapping : Sat.Three_sat.mapping option;  (** [Some] iff conversion happened *)
  model : bool array option;  (** SAT model, projected back to original variables *)
  certificate : (verdict, string) result;
}

val answer : t -> Sat.Answer.t
(** The certified result in the shared answer type: the solver's answer
    when the certificate holds (with [Sat] carrying the model projected to
    the original variables), [Unknown Cert_failed] when the checker
    rejected the claim. *)

val solve :
  ?config:Hyqsat.Hybrid_solver.config ->
  ?max_iterations:int ->
  ?should_stop:(unit -> bool) ->
  Sat.Cnf.t ->
  t
(** Certified hybrid solve: 3-SAT-convert if needed (keeping the map),
    force DRAT logging in the CDCL config, run
    {!Hyqsat.Hybrid_solver.solve}, then certify the answer end to end. *)

val solve_classic :
  ?config:Cdcl.Config.t ->
  ?max_iterations:int ->
  ?should_stop:(unit -> bool) ->
  Sat.Cnf.t ->
  t
(** Same wrapper around the classical baseline. *)
