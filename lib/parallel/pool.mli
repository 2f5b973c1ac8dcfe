(** Persistent fixed-size Domain worker pool with batch scheduling.

    [create] spawns N OCaml 5 domains once; they live until {!shutdown}.
    Work is scheduled in batches — {!run} hands a whole item list to the
    pool in one queue operation and the calling domain {e helps} execute
    its own batch while waiting, so a k-item batch costs one hand-off (not
    k) and the pool is deadlock-free under nesting: an item that itself
    calls [run] on the same pool always makes progress inline, even when
    every worker is busy.  Worker exceptions are captured per item
    ([Error exn]) and never tear the pool down — the next [run] starts
    clean.

    The pool is generic: the batch layer feeds it jobs, the annealer feeds
    it chunked best-of reads (via {!Tasks}), the benchmark feeds it
    closures.  Note domains multiply: a pool of W workers each racing a
    P-member portfolio holds W×P+1 domains; keep the product around the
    core count. *)

type ('a, 'b) t

val create : workers:int -> (worker:int -> 'a -> 'b) -> ('a, 'b) t
(** Spawn [workers] domains (clamped to [0, 64]).  [worker] is the 0-based
    index of the domain executing the item — useful for per-worker RNGs;
    items executed inline by a helping {!run} caller (or by {!submit} on a
    0-worker pool) see [worker = workers t].  A 0-worker pool is valid: {!run} then executes
    everything on the calling domain. *)

val workers : ('a, 'b) t -> int
(** Number of spawned worker domains (the helping caller adds one more
    execution lane on top). *)

val run : ('a, 'b) t -> 'a list -> ('b, exn) result array
(** Execute every item and return results in input order.  Reusable: call
    it as many times as you like, from any domain — concurrent [run]s from
    different domains interleave safely, each returning only its own
    batch's results.  The caller participates in executing its own batch
    (helping), so even a fully-loaded pool completes the call.
    @raise Invalid_argument after {!shutdown}. *)

val submit : ('a, 'b) t -> 'a -> unit
(** Enqueue one item for asynchronous execution and return at once.  The
    pool keeps nothing once the item has run: its result (or exception)
    is dropped, so an item reports completion through its own side
    effects.  On a 0-worker pool the item runs inline on the caller.
    @raise Invalid_argument after {!shutdown}. *)

val shutdown : ('a, 'b) t -> unit
(** Finish all claimable work, join the worker domains, and close the
    pool.  Idempotent.  Subsequent {!run}/{!submit} raise
    [Invalid_argument]. *)
