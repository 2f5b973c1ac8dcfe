(** The one lexer behind DIMACS ({!Dimacs}), WDIMACS ({!Wcnf}) and DRAT
    ({!Drat}): a cursor the parsers pull tokens from, straight off the
    input string.  The grammar it accepts:

    - Space, tab, CR, form feed and LF separate tokens (so CRLF files
      read like LF files); a token is a maximal run of other characters.
    - A line whose first non-blank character is [c] is a comment, skipped
      whole.  A [c] elsewhere is an ordinary token.
    - Integers are decimal only, [-?[0-9]+], of magnitude at most
      [max_int]: [0x3], [0b11], [0o2], [1_0], [+1] and a bare [-] are
      errors.
    - Words are the bare tokens the formats name: [p], [cnf], [wcnf], [d],
      [h] (or [H]) and [%].  In DIMACS and WDIMACS a [%] where a clause
      would start ends the clauses and the rest of the input is ignored
      (the SATLIB uf/uuf footer is [%] and then a lone [0]).
    - Header counts are checked before anything is sized by them: a
      variable count, and in DIMACS and WDIMACS every literal, is at most
      {!max_vars}; a clause count is at most half the bytes left in the
      input, since each clause takes at least two (its [0] and the blank
      before it).  DRAT literals are not capped: {!Drat.check}
      range-checks them against the formula.

    Every error in the three formats is a {!Parse_error}. *)

exception Parse_error of { line : int; reason : string }
(** [line] counts from 1. *)

val max_vars : int
(** [1 lsl 20].  The solvers size per-variable state by the declared
    count, and [Cdcl.Solver.create] alone takes about 170 bytes per
    variable (177 MB at [2^20], 705 MB at [2^22]), so an uncapped 20-byte
    [p cnf 100000000 1] would cost gigabytes.  [2^20] is far above the
    instances this project targets (SATLIB's stop at a few hundred
    variables) and keeps the worst case to ~177 MB per solver. *)

type t

val of_string : string -> t

val fail : t -> ('a, unit, string, 'b) format4 -> 'a
(** Raises {!Parse_error} at the current line. *)

val more : t -> bool
(** Skips blanks and comment lines; [false] at the end of the input. *)

val on_line : t -> bool
(** Whether another token follows on the line of the last one read. *)

val accept : t -> string -> bool
(** [accept t w] consumes the next token if it is the word [w]. *)

val int : t -> int

val clause : t -> limit:int -> int list
(** Literals up to a terminating [0], each of magnitude at most [limit],
    last first. *)

val num_vars : t -> int
(** A variable count, in [\[0, max_vars\]]. *)

val num_clauses : t -> int
(** A clause count, in [\[0, (bytes left) / 2\]]. *)
