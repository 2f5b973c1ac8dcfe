(** DRAT proof logging and checking.

    When {!Config.t}[.log_proof] is set, the solver records every learnt
    clause as an addition and every database-reduction victim as a deletion.
    An unsatisfiability result ends with the empty clause.  {!check}
    verifies the proof by reverse unit propagation (RUP): each added clause
    must propagate to a conflict when its negation is assumed against the
    accumulated database.  RUP is sound, so a checked proof certifies the
    UNSAT answer independently of the solver's implementation.

    {b RUP only.}  The checker has no resolution-asymmetric-tautology (RAT)
    rule: an addition that is not RUP is rejected even when it is RAT.  Our
    CDCL only emits RUP lemmas (learnt clauses and the empty clause), so
    every proof it logs checks; a RAT proof from an external solver may
    not.

    {b Deletions.}  A deletion removes one live copy of the clause with the
    same set of literals (order and repeats ignored); deleting a clause
    that is not in the database is a no-op.  Unit and empty clauses are
    deleted like any other, so deleting a unit the refutation still needs
    makes the proof fail.  drat-trim differs here: it ignores unit
    deletions, so a proof that deletes a load-bearing unit can pass
    drat-trim and fail this checker.

    {b Cost.}  The database is a flat literal store with two watched
    literals per clause of two or more literals, a per-literal value
    array and one trail.  Each addition asserts the live units and the
    negated lemma, propagates over the watches, and undoes the trail, so
    checking a lemma costs the propagation it triggers rather than a scan
    of the database.  A deletion looks its clause up through a hash of
    the sorted literals; the dead clause leaves the watch lists the next
    time propagation visits it.  Nothing outlives the call.  The counting
    checker this one replaced is kept as its differential oracle
    ([Oracle.Drat_rup], linked only by tests and benchmarks).

    {b Range.}  Every literal of every step must be over a variable of the
    formula ([< Cnf.num_vars f]).  A step that mentions any other variable
    makes the check return [Error "step i: variable v out of range ..."]
    (with [v] in DIMACS numbering) without looking at later steps; no
    exception escapes {!check} or {!check_steps} for any proof. *)

type step = Add of Lit.t list | Delete of Lit.t list

type t = step list
(** In derivation order. *)

val to_string : t -> string
(** Standard textual DRAT ("d" prefix for deletions, DIMACS literals). *)

exception Parse_error of { line : int; reason : string }
(** The same exception as {!Lexer.Parse_error}. *)

val parse_string : string -> t
(** Inverse of {!to_string}: one step per line, an optional [d] and then
    literals up to a [0] that ends the line, in the grammar of {!Lexer}.
    @raise Parse_error on malformed input, a bare [d] line included. *)

val check : ?should_stop:(unit -> bool) -> Cnf.t -> t -> (unit, string) result
(** [check f proof] verifies every addition is RUP with respect to [f] plus
    the previously added (and not yet deleted) clauses, and that the proof
    derives the empty clause.  [Error] carries the first offending step.
    [should_stop] is polled once before each addition; once it returns
    [true] the check ends with [Error "step i: check stopped"], so a
    stopped check never passes. *)

val check_steps : ?should_stop:(unit -> bool) -> Cnf.t -> t -> (unit, string) result
(** Like {!check} but does not require the empty clause — verifies the
    derivation only (useful for satisfiable runs where learnt clauses are
    still logged). *)
