(** Gate-level combinational circuits with Tseitin CNF encoding.

    The substrate for the circuit-fault-analysis, integer-factorisation and
    cryptographic benchmark generators: build a netlist, assert output
    values, convert to CNF (each wire becomes a SAT variable). *)

type wire = int
type t

val create : unit -> t
val fresh_input : t -> wire
val const_true : t -> wire
val const_false : t -> wire

val not_ : t -> wire -> wire
val and_ : t -> wire -> wire -> wire
val or_ : t -> wire -> wire -> wire
val xor_ : t -> wire -> wire -> wire
val nand_ : t -> wire -> wire -> wire

val assert_true : t -> wire -> unit
val assert_false : t -> wire -> unit
val assert_any : t -> wire list -> unit
(** At least one of the wires is true (a raw CNF clause). *)

val full_adder : t -> wire -> wire -> wire -> wire * wire
(** [(sum, carry)] of three input bits. *)

val ripple_adder : t -> wire list -> wire list -> wire list
(** LSB-first addition; the result has one extra carry-out bit. *)

val multiplier : t -> wire list -> wire list -> wire list
(** LSB-first array multiplier, result width = sum of input widths. *)

val to_cnf : t -> Sat.Cnf.t
(** Tseitin encoding of every gate plus the recorded assertions.  Wire [w]
    becomes SAT variable [w].  The result is not necessarily 3-SAT (XOR gates
    produce 4-literal-free clauses but assertions/gates stay ≤ 3 literals
    here); combine with {!Sat.Three_sat.convert} when a strict 3-SAT instance
    is required. *)

val eval : t -> inputs:(wire * bool) list -> (wire -> bool)
(** Reference simulation (ignores assertions); raises [Not_found] for a wire
    whose value is not determined by [inputs]. *)
