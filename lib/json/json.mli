(** The repository's one JSON codec: the value type, a compact emitter, a
    depth-bounded recursive-descent parser and the accessors schema
    readers are written with.  Telemetry documents, HQF1 wire messages,
    JSONL traces and the bench artifacts all go through it.  It depends on
    nothing but the standard library. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering, no whitespace, members in list order.  A finite
    [Num] prints with enough digits to round-trip exactly; a non-finite
    one prints as [null], since JSON has no spelling for NaN or ±inf.
    Strings escape the double quote, the backslash and control bytes;
    other bytes pass through. *)

val max_depth : int
(** Deepest array/object nesting {!parse} accepts: 64.  The documents
    this repository writes nest about four levels; the cap keeps a
    hostile frame from driving the recursive parser's stack and heap. *)

type error =
  | Syntax of string  (** malformed input, with a byte offset *)
  | Too_deep of int  (** nesting passed {!max_depth}, which it names *)

val error_message : error -> string

val parse : string -> (t, error) result
(** Parses one JSON value with optional surrounding whitespace.  [\uXXXX]
    escapes decode to UTF-8 (BMP only).  Integers that fit an OCaml [int]
    read as [Int], every other number as [Num]. *)

exception Schema_error of string
(** A document that parsed but does not have the shape a reader expects.
    Raised by the accessors below, and by schema readers built on them. *)

val decode : string -> (t -> 'a) -> ('a, string) result
(** [decode s read] parses [s] and applies [read]; a parse error or a
    {!Schema_error} raised by [read] becomes [Error message]. *)

(** {2 Accessors}

    All raise {!Schema_error} on a kind mismatch. *)

val field : (string * t) list -> string -> t
(** The member's value; raises {!Schema_error} when the key is missing. *)

val opt_field : (string * t) list -> string -> (t -> 'a) -> 'a option
(** [opt_field kvs k read] is [None] when [k] is absent and
    [Some (read v)] otherwise. *)

val as_bool : t -> bool
val as_int : t -> int
(** Also accepts an integral [Num]. *)

val as_num : t -> float
(** Also accepts an [Int], and reads [Null] as [nan]: the emitter writes
    every non-finite float as [null]. *)

val as_str : t -> string
val as_obj : t -> (string * t) list
val as_arr : t -> t list
