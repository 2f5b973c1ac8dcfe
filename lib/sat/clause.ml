type t = Lit.t array

let of_array arr =
  let l = Array.to_list arr in
  let l = List.sort_uniq Lit.compare l in
  Array.of_list l

let make lits = of_array (Array.of_list lits)
let of_dimacs ints = make (List.map Lit.of_dimacs ints)
let lits c = Array.to_list c
let to_array c = Array.copy c
let size = Array.length
let is_empty c = Array.length c = 0

let is_tautology c =
  (* literals are sorted, so l and ¬l are adjacent *)
  let n = Array.length c in
  let rec go i = i + 1 < n && (Lit.var c.(i) = Lit.var c.(i + 1) || go (i + 1)) in
  go 0

let vars c = List.sort_uniq Int.compare (List.map Lit.var (lits c))

let compare c1 c2 =
  let n = Int.compare (Array.length c1) (Array.length c2) in
  if n <> 0 then n
  else
    let rec go i =
      if i >= Array.length c1 then 0
      else
        let d = Lit.compare c1.(i) c2.(i) in
        if d <> 0 then d else go (i + 1)
    in
    go 0

let equal c1 c2 = compare c1 c2 = 0

let pp fmt c =
  Format.fprintf fmt "(%a)"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " \\/ ") Lit.pp)
    (lits c)
