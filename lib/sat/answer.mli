(** The one answer type.

    Every solving surface in the code base — [Cdcl.Solver], the hybrid
    pipeline, [Job] outcomes, [Portfolio] member reports, [Certify] —
    reports a value of this type (via [type result = Sat.Answer.t = ...]
    re-export equations, so the constructors are shared, not merely
    convertible). *)

type reason =
  | Timeout  (** a deadline expired *)
  | Budget  (** an iteration/conflict budget ran out *)
  | Cancelled  (** cooperatively stopped (portfolio loser, user abort) *)
  | Cert_failed  (** an answer was produced but failed certification *)

type t =
  | Sat of bool array  (** satisfying assignment, indexed by variable *)
  | Unsat
  | Unknown of reason

val label : t -> string
(** ["sat"], ["unsat"], ["unknown:timeout"], ["unknown:budget"],
    ["unknown:cancelled"], ["unknown:cert-failed"] — the strings used in
    telemetry JSON; byte-stable. *)

val is_decisive : t -> bool
(** [true] for [Sat _] and [Unsat]. *)
