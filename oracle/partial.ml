type value = True | False | Unassigned
type t = value array

let create n = Array.make n Unassigned
let value t v = t.(v)
let set t v b = t.(v) <- (if b then True else False)
let unset t v = t.(v) <- Unassigned

let lit_value t l =
  match t.(Sat.Lit.var l) with
  | Unassigned -> Unassigned
  | True -> if Sat.Lit.is_pos l then True else False
  | False -> if Sat.Lit.is_pos l then False else True

let clause_status t c =
  let unassigned = ref None in
  let n_unassigned = ref 0 in
  let sat = ref false in
  Array.iter
    (fun l ->
      match lit_value t l with
      | True -> sat := true
      | False -> ()
      | Unassigned ->
          incr n_unassigned;
          unassigned := Some l)
    (c : Sat.Clause.t :> Sat.Lit.t array);
  if !sat then `Satisfied
  else
    match (!n_unassigned, !unassigned) with
    | 0, _ -> `Falsified
    | 1, Some l -> `Unit l
    | _ -> `Unresolved

let to_bools t ~default =
  Array.map (function True -> true | False -> false | Unassigned -> default) t

let num_unsatisfied model f =
  List.fold_left
    (fun n c -> if Sat.Assignment.satisfies_clause model c then n else n + 1)
    0 (Sat.Cnf.clauses f)
