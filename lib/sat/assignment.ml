type value = True | False | Unassigned

let value_of_bool b = if b then True else False

type t = value array

let create n = Array.make n Unassigned
let of_bools bools = Array.map value_of_bool bools
let value t v = t.(v)
let set t v b = t.(v) <- value_of_bool b
let unset t v = t.(v) <- Unassigned
let copy = Array.copy

let lit_value t l =
  match t.(Lit.var l) with
  | Unassigned -> Unassigned
  | True -> if Lit.is_pos l then True else False
  | False -> if Lit.is_pos l then False else True

let satisfies_clause t c =
  Array.exists (fun l -> lit_value t l = True) (c : Clause.t :> Lit.t array)

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
    (c : Clause.t :> Lit.t array);
  if !sat then `Satisfied
  else
    match (!n_unassigned, !unassigned) with
    | 0, _ -> `Falsified
    | 1, Some l -> `Unit l
    | _ -> `Unresolved

let satisfies t f = List.for_all (satisfies_clause t) (Cnf.clauses f)

let num_unsatisfied t f =
  List.fold_left (fun n c -> if satisfies_clause t c then n else n + 1) 0 (Cnf.clauses f)

let to_bools t ~default =
  Array.map (function True -> true | False -> false | Unassigned -> default) t
