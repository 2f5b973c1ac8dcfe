(** HyQSAT backend: from a QA outcome to CDCL guidance (paper §V).

    The annealer's energy is classified into the four confidence intervals;
    the matching feedback strategy is applied to the solver:

    {ol
    {- {b Strategy 1} — all clauses embedded and energy 0: verify the
       assignment against the whole formula and finish.}
    {- {b Strategy 2} — satisfiable (partial embedding) or near-satisfiable:
       keep the annealer's variable assignments as saved phases and decide
       those variables first.}
    {- {b Strategy 3} — uncertain: no guidance.}
    {- {b Strategy 4} — near-unsatisfiable: prioritise the involved variables
       so the search reaches the inevitable conflict quickly.}} *)

type strategy = S1_solved | S2_keep_assignment | S3_none | S4_reach_conflict

type enabled = { s1 : bool; s2 : bool; s4 : bool }
(** Ablation switches (Fig. 10).  Disabled strategies fall back to S3. *)

val all_enabled : enabled

val classify :
  Calibration.t -> all_embedded:bool -> energy:float -> strategy
(** Map an energy reading to the feedback strategy of §V-B's table. *)

type applied = {
  strategy : strategy;
  solved : bool array option;  (** Strategy 1 verified model *)
  time_s : float;  (** measured wall-clock time of [apply] *)
}

val apply :
  ?enabled:enabled ->
  ?s2_energy_gate:float ->
  ?allow_s2_hints:bool ->
  ?hint_filter:(Sat.Lit.var -> bool -> bool) ->
  Calibration.t ->
  Cdcl.Solver.t ->
  Sat.Cnf.t ->
  Frontend.prepared ->
  Anneal.Machine.outcome ->
  applied
(** Classify and act on the solver.  Strategy 1's model is re-verified
    against the full formula before being trusted (annealer noise can never
    compromise soundness).  Strategy 2's phase hints can be restricted two
    ways: [s2_energy_gate] (default: no gate) drops hints from samples whose
    energy exceeds the gate, and [hint_filter] selects which
    (variable, value) hints apply — the hybrid driver passes a vote-margin
    filter that only lets through variables stable across many samples,
    which is what keeps one-off subset solutions from thrashing the saved
    phases.  [allow_s2_hints] disables hint application wholesale for a
    call.  Strategies 1 and 4 are unaffected by all three. *)
