(** Growable array, the workhorse container of the solver hot paths. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills unused capacity (never observable through the API). *)

val size : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val unsafe_get : 'a t -> int -> 'a
(** {!get} without the bounds check.  The index must satisfy
    [0 <= i < size t]; violated bounds are caught by an [assert] in debug
    builds and are undefined behaviour under [-noassert].  For hot loops
    (trail walks, watch-list scans) only. *)

val unsafe_set : 'a t -> int -> 'a -> unit
(** {!set} without the bounds check; same contract as {!unsafe_get}. *)

val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
(** Removes and returns the last element.  @raise Invalid_argument if empty. *)

val last : 'a t -> 'a
val clear : 'a t -> unit
val shrink : 'a t -> int -> unit
(** [shrink t n] drops elements so that [size t = n]. *)

val iter : ('a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list
val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keeps only elements satisfying the predicate, preserving order. *)
