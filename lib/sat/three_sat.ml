type mapping = { original_vars : int; aux_vars : int }

let convert f =
  let next = ref (Cnf.num_vars f) in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let out = ref [] in
  let emit c = out := c :: !out in
  List.iter
    (fun c ->
      let lits = Clause.lits c in
      let k = List.length lits in
      if k <= 3 then emit c
      else begin
        (* chain split: (l1 l2 a1) (~a1 l3 a2) ... (~a_{k-3} l_{k-1} lk) *)
        match lits with
        | l1 :: l2 :: rest ->
            let a1 = fresh () in
            emit (Clause.make [ l1; l2; Lit.pos a1 ]);
            let rec go prev_aux = function
              | [ lk1; lk2 ] -> emit (Clause.make [ Lit.neg_of prev_aux; lk1; lk2 ])
              | l :: rest ->
                  let a = fresh () in
                  emit (Clause.make [ Lit.neg_of prev_aux; l; Lit.pos a ]);
                  go a rest
              | [] -> assert false
            in
            go a1 rest
        | _ -> assert false
      end)
    (Cnf.clauses f);
  let cnf = Cnf.make ~num_vars:!next (List.rev !out) in
  (cnf, { original_vars = Cnf.num_vars f; aux_vars = !next - Cnf.num_vars f })
