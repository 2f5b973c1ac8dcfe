(** Wall-clock deadlines for solver jobs.

    A deadline is an absolute point in time (from [Unix.gettimeofday]).
    {!Batch} folds a job's deadline and the caller's cancel switch into the
    one [should_stop] closure every phase of the job polls; [none] never
    expires.  Checking costs one [gettimeofday] call (~25 ns), cheap enough
    to poll every few solver steps. *)

type t

val none : t
(** Never expires. *)

val after : float -> t
(** [after s] expires [s] seconds from now.  [s <= 0] is already expired. *)

val expired : t -> bool
