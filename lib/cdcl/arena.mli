(** Flat clause arena: every clause is a contiguous
    [header | origin | lits...] block in one growable [int array],
    addressed by an integer clause ref ([cref]).

    The header word packs [deleted] (bit 0), [learnt] (bit 1), a GC
    forwarding marker (bit 2) and the clause size (bits 3+); [origin] is
    the original-formula clause index ([-1] for learnt clauses).  Learnt
    activities live in an exact float side array indexed by cref.

    Hot loops are expected to fetch {!data} once and read headers/literals
    with [Array.unsafe_get] using {!lits_offset}/{!size_shift}; everything
    else goes through the checked accessors below. *)

type t
type cref = int

val lits_offset : int
(** Word offset of the first literal within a clause block (= 2). *)

val size_shift : int
(** Bit position of the size field in the header word (= 3). *)

val create : ?capacity:int -> unit -> t

val alloc : t -> learnt:bool -> origin:int -> Sat.Lit.t array -> cref
(** Append a clause (copying the literals).  Requires at least two
    literals: unit and empty clauses live on the trail / in the status, not
    in the arena. *)

val words : t -> int
(** Allocated words (the next fresh cref). *)

val wasted : t -> int
(** Words occupied by deleted clauses; the solver compacts when
    [wasted > garbage_frac * words]. *)

val data : t -> int array
(** The raw word array, valid until the next {!alloc} (growth replaces the
    array).  For the propagate/analyze hot loops. *)

val size : t -> cref -> int
val learnt : t -> cref -> bool
val deleted : t -> cref -> bool
val origin : t -> cref -> int
val lit : t -> cref -> int -> Sat.Lit.t
val activity : t -> cref -> float
val set_activity : t -> cref -> float -> unit

val lits : t -> cref -> Sat.Lit.t array
(** Fresh copy of the literals (cold paths: DRAT logging, export). *)

val lit_list : t -> cref -> Sat.Lit.t list

val delete : t -> cref -> unit
(** Mark deleted and account its words as wasted.  The block stays
    readable until the next GC; relocating a deleted clause is an error. *)

val reloc : t -> into:t -> cref -> cref
(** [reloc from ~into c] copies the live clause [c] into [into] on first
    touch (leaving a forwarding marker behind) and returns its new cref;
    later touches return the same forwarding cref.  The caller walks every
    cref-holding structure (watches, reasons, learnt list, origin map) and
    rewrites refs through this function, then swaps the arenas. *)
