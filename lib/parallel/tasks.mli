(** Shared thunk pool — {!Pool} specialised to closures.

    For callers that need "run these closures across the cores" without a
    typed job/result pair: the annealer's chunked best-of reads, the
    portfolio's race members, benchmark fan-outs.  {!shared} is the process-wide instance; creating it once
    and reusing it everywhere is what keeps domain spawn/join off hot
    paths. *)

type thunk = worker:int -> unit
(** [worker] is the executing lane: [0 .. workers t - 1] for pool domains,
    [workers t] for the helping caller.  Thunks that keep per-domain state
    should key it with {!Local} (by domain identity) rather than by this
    index — two concurrent {!run} callers may both help as lane
    [workers t]. *)

type t

val create : workers:int -> t
(** Spawn a dedicated pool ([workers] clamped to [0, 64]; 0 means every
    {!run} executes inline on the caller). *)

val workers : t -> int

val run : t -> thunk list -> unit
(** Execute every thunk and wait for all of them (the caller helps — see
    {!Pool.run}).  If any thunk raised, the first exception (in list
    order) is re-raised {e after} the barrier, so no thunk is still
    running when [run] returns.  Reusable and safe to call concurrently
    from several domains, including from inside a thunk running on this
    very pool. *)

val shutdown : t -> unit
(** Join the workers.  Idempotent. *)

val shared : unit -> t
(** The lazily-created process-wide pool, sized
    [Domain.recommended_domain_count () - 1] (the last core belongs to the
    helping caller).  All in-process users share it — the annealer's
    parallel reads and portfolio races, from several worker domains at
    once — and its workers are joined via [at_exit]. *)
