(** Deterministic random number generation.

    A thin wrapper around [Random.State] giving every component of the
    reproduction an explicit, splittable seed so each experiment is exactly
    reproducible from the command line. *)

type t = Random.State.t
(** Exposed so hot loops can draw from the stdlib state directly: the
    annealing kernel reads [Random.State.bits64] to get an unboxed
    uniform (see [Anneal.Kernel]). *)

val create : seed:int -> t
(** Fresh generator from an integer seed. *)

val split_n : t -> int -> t array
(** [split_n t n] is [n] independent child generators, derived from [t]
    with a sequential draw of seed material plus a per-index salt.  The
    children depend only on [t]'s state and [n]-independent draw order, so
    fanning work over them gives results that do not depend on how many
    domains execute the fan-out (the annealer's best-of-k reads). *)

val int : t -> int -> int
(** [int t bound] is uniform over [0 .. bound-1].  [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] is uniform over [0, bound). *)

val bool : t -> bool

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate by the Box–Muller transform. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] is [k] distinct indices from
    [0 .. n-1], in random order.  Requires [k <= n]. *)
