(** Differential fuzzing of the hybrid solver against exact references.

    Each round draws a random small instance (uniform 3-SAT at a mix of
    clause/variable ratios, optionally with longer clauses so the 3-SAT
    conversion path is exercised), solves it three ways — a certified
    hybrid job, a certified classical minisat-config job, and exhaustive
    {!Brute} — and flags any disagreement or uncertifiable answer.  Both
    solver jobs run the product path: {!Service.Job.make} with [certify]
    (which 3-SAT-converts the instance), a DRAT-logging
    {!Service.Batch.solo} member, and {!Service.Batch.process}.  A failing instance is shrunk to
    a minimal CNF reproducer by greedy clause deletion (every removal is
    re-validated against the same differential check). *)

type config = {
  instances : int;  (** rounds to run *)
  min_vars : int;
  max_vars : int;  (** instance size range (kept small: brute is the oracle) *)
  mixed_k : bool;  (** include clauses of length 4–6 (exercises conversion) *)
  max_iterations : int;  (** CDCL budget per solve; exhaustion is not a failure *)
  grid : int;  (** Chimera grid for the hybrid member (small = fast) *)
  seed : int;
}

val default_config : config
(** 200 instances over 4–10 variables, mixed-k on, 4×4 grid. *)

type failure = {
  instance_seed : int;  (** reproduce with [instance ~config ~seed] *)
  instance : Sat.Cnf.t;  (** as generated *)
  shrunk : Sat.Cnf.t;  (** minimal reproducer (clause-deletion fixpoint) *)
  reason : string;  (** first divergence found, human-readable *)
}

type outcome = { ran : int; failures : failure list }

val instance : config:config -> seed:int -> Sat.Cnf.t
(** The deterministic instance a given round draws. *)

val check_instance : config:config -> seed:int -> Sat.Cnf.t -> (unit, string) result
(** One differential round on a given formula: hybrid vs. classic vs.
    brute, all certified.  [Error] describes the first divergence. *)

val shrink : still_fails:(Sat.Cnf.t -> bool) -> Sat.Cnf.t -> Sat.Cnf.t
(** Greedy clause-deletion minimisation: repeatedly drop any clause whose
    removal keeps [still_fails] true, to a fixpoint, then compact away
    unused variables. *)

val reproducer : failure -> string
(** The shrunk instance as a DIMACS document (with the failure reason and
    seed as comments) — paste into a regression test or a CNF file. *)

val run : ?progress:(int -> unit) -> config -> outcome
(** Run the whole campaign.  [progress] is called with each completed round
    index (e.g. to keep CI logs alive). *)
