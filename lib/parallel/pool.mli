(** Persistent fixed-size Domain worker pool running thunks, with batch
    scheduling.

    [create] spawns N OCaml 5 domains once; they live until {!shutdown}.
    Work is scheduled in batches — {!run} hands a whole thunk list to the
    pool in one queue operation and the calling domain {e helps} execute
    its own batch while waiting, so a k-thunk batch costs one hand-off
    (not k) and the pool is deadlock-free under nesting: a thunk that
    itself calls [run] on the same pool always makes progress inline, even
    when every worker is busy.  A raising thunk never tears the pool down
    — the next [run] starts clean.

    Every domain under [lib/] is a lane of a pool: the batch layer and the
    daemon run jobs on their own pools, while the annealer's chunked
    best-of reads and the portfolio's race members run on {!shared}.  So a
    process holds at most the sum of its pools' workers plus the calling
    domains.  Thunks that keep per-domain scratch key it with
    [Domain.DLS], not with the lane index: two concurrent {!run} callers
    may both help as lane [workers t]. *)

type thunk = worker:int -> unit
(** [worker] is the executing lane: [0 .. workers t - 1] for pool domains,
    [workers t] for a helping {!run} caller (and for {!submit} on a
    0-worker pool, which runs the thunk inline). *)

type t

val create : workers:int -> t
(** Spawn [workers] domains (clamped to [0, 64]).  A 0-worker pool is
    valid: {!run} then executes everything on the calling domain. *)

val workers : t -> int
(** Number of spawned worker domains (the helping caller adds one more
    execution lane on top). *)

val run : t -> thunk list -> unit
(** Execute every thunk and wait for all of them; a thunk reports its
    result through its own side effects (e.g. into its index of an
    array).  If any thunk raised, the first exception in list order is
    re-raised {e after} the barrier, so no thunk is still running when
    [run] returns.  Reusable and safe to call concurrently from several
    domains, including from inside a thunk running on this very pool.
    @raise Invalid_argument after {!shutdown}. *)

val submit : t -> thunk -> unit
(** Enqueue one thunk for asynchronous execution and return at once.  The
    pool keeps nothing once the thunk has run, and an exception it raises
    is dropped, so it reports completion through its own side effects.
    On a 0-worker pool the thunk runs inline on the caller.
    @raise Invalid_argument after {!shutdown}. *)

val shutdown : t -> unit
(** Finish all claimable work, join the worker domains, and close the
    pool.  Idempotent.  Subsequent {!run}/{!submit} raise
    [Invalid_argument]. *)

val shared : unit -> t
(** The lazily-created process-wide pool, sized
    [Domain.recommended_domain_count () - 1] (the last core belongs to the
    helping caller).  All in-process users share it — the annealer's
    parallel reads and portfolio races, from several worker domains at
    once — and its workers are joined via [at_exit]. *)
