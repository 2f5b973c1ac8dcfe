(** Noise-optimising coefficient adjustment (paper §IV-C, Equations 7–9).

    With all sub-clause weights α = 1, the global objective's largest
    coefficient d* divides everything in normalisation, flattening the
    energy landscape of sub-clauses whose own coefficients are small.  The
    fix: compute per-sub-clause [d_{i,j}] — the maximum coefficient of the
    global α=1 objective restricted to the sub-clause's variables — and
    raise each weight to [α_{i,j} = d*/d_{i,j} ≥ 1].  d* is unchanged, so
    normalisation divides by the same number while weak sub-clauses now sit
    on a steeper slope. *)

val adjust : Encode.t -> Pbq.t
(** Sets every sub-clause's [alpha] to [d*/d_{i,j}] in place, using the
    current α = 1 baseline objective — then caps: when boosted sub-clauses
    share variables their coefficients stack and can exceed d*, which would
    grow the normalisation divisor and shrink the gap the adjustment was
    meant to protect.  Offending sub-clauses are scaled back (never below
    α = 1) until the adjusted objective's d* is no larger than the
    baseline's.  (The paper states d* is preserved; that only holds without
    variable sharing, so the cap is this reproduction's explicit fix.)

    Returns the adjusted objective: the one the last cap pass built and
    found within d*, or, when the pass budget runs out, one built after the
    last pass.  Either way it equals [Encode.objective t] rebuilt at once,
    term for term and in the same table iteration order.  It goes stale as
    soon as any α changes again: [Frontend.prepare] rebuilds it after
    {!Encode.set_clause_weights} rescales the α's for MaxSAT weights. *)
