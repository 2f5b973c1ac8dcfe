type t = float (* absolute epoch seconds; infinity = no deadline *)

let none = infinity
let after s = Unix.gettimeofday () +. s
let expired t = t < infinity && Unix.gettimeofday () >= t
