type var = int
type t = int

let make v sign =
  assert (v >= 0);
  (v * 2) + if sign then 0 else 1

let pos v = make v true
let neg_of v = make v false
let var l = l lsr 1
let negate l = l lxor 1
let is_pos l = l land 1 = 0
let to_dimacs l = if is_pos l then var l + 1 else -(var l + 1)

let of_dimacs i =
  if i = 0 then invalid_arg "Lit.of_dimacs: zero"
  else if i > 0 then pos (i - 1)
  else neg_of (-i - 1)

let compare = Int.compare
let to_string l = if is_pos l then Printf.sprintf "x%d" (var l) else Printf.sprintf "~x%d" (var l)
let pp fmt l = Format.pp_print_string fmt (to_string l)
