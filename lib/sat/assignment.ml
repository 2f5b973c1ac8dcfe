let satisfies_clause model c =
  Array.exists (fun l -> model.(Lit.var l) = Lit.is_pos l) (c : Clause.t :> Lit.t array)

let satisfies model f = List.for_all (satisfies_clause model) (Cnf.clauses f)
