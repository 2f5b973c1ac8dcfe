(** Per-client admission quotas: a cap on how many jobs one client may
    have in flight (queued or running) at once, so a single chatty
    submitter cannot monopolise the admission queue.

    Clients are identified by the string they announce in [Hello] (or a
    per-connection fallback).  Not thread-safe: lives on the event-loop
    thread next to {!Jobq}. *)

type t

val create : limit:int -> t
(** [limit] jobs in flight per client.  @raise Invalid_argument if
    [limit < 1]. *)

val admit : t -> string -> bool
(** Charge one slot to the client if under the limit; [false] (and no
    charge) otherwise. *)

val release : t -> string -> unit
(** Return one slot.  Releasing below zero is a bug in the caller and
    raises [Invalid_argument]. *)

val load : t -> string -> int
(** Slots currently charged to the client. *)
