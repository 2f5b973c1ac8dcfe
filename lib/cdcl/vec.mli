(** Growable array, the workhorse container of the solver hot paths. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills unused capacity (never observable through the API). *)

val size : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val unsafe_get : 'a t -> int -> 'a
(** {!get} without the bounds check.  The index must satisfy
    [0 <= i < size t]; violated bounds are caught by an [assert] in debug
    builds and are undefined behaviour under [-noassert].  For hot loops
    (trail walks, watch-list scans) only. *)

val push : 'a t -> 'a -> unit
val shrink : 'a t -> int -> unit
(** [shrink t n] drops elements so that [size t = n]. *)

val iter : ('a -> unit) -> 'a t -> unit
val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keeps only elements satisfying the predicate, preserving order. *)
