(** DIMACS CNF reader/writer.

    Supports the standard [p cnf <vars> <clauses>] header and clauses
    terminated by [0], possibly spanning several lines, in the grammar
    and caps of {!Lexer} (SATLIB's [%] footer included). *)

exception Parse_error of { line : int; reason : string }
(** The same exception as {!Lexer.Parse_error}. *)

val parse_string : string -> Cnf.t
(** Parse a DIMACS document from a string.  @raise Parse_error. *)

val to_string : ?comments:string list -> Cnf.t -> string
(** Render to DIMACS, prefixing each [comments] entry as a [c] line. *)

val write_file : ?comments:string list -> string -> Cnf.t -> unit
