(* The counting RUP checker [Sat.Drat] shipped before its watched-literal
   rewrite, moved here unchanged as that checker's differential oracle. *)

open Sat

(* ------------------------------------------------------------------ *)
(* RUP checking with a simple counting propagator                      *)

module Db = struct
  (* clause database for the checker: multiset of literal lists *)
  type db = { mutable clauses : Lit.t list list }

  let of_cnf f = { clauses = List.map Clause.lits (Cnf.clauses f) }
  let add db lits = db.clauses <- lits :: db.clauses

  let delete db lits =
    let target = List.sort Lit.compare lits in
    let rec remove = function
      | [] -> [] (* deleting an absent clause is a no-op, as in drat-trim *)
      | c :: rest ->
          if List.sort Lit.compare c = target then rest else c :: remove rest
    in
    db.clauses <- remove db.clauses

  (* unit propagation from assumptions; true iff a conflict arises *)
  let propagates_to_conflict db ~assumed num_vars =
    let value = Assignment.create num_vars in
    let conflict = ref false in
    (try
       List.iter
         (fun l ->
           match Assignment.lit_value value l with
           | Assignment.False -> raise Exit
           | _ -> Assignment.set value (Lit.var l) (Lit.is_pos l))
         assumed
     with Exit -> conflict := true);
    let changed = ref true in
    while (not !conflict) && !changed do
      changed := false;
      List.iter
        (fun c ->
          if not !conflict then begin
            let unassigned = ref [] and satisfied = ref false in
            List.iter
              (fun l ->
                match Assignment.lit_value value l with
                | Assignment.True -> satisfied := true
                | Assignment.False -> ()
                | Assignment.Unassigned -> unassigned := l :: !unassigned)
              c;
            if not !satisfied then
              match !unassigned with
              | [] -> conflict := true
              | [ l ] ->
                  Assignment.set value (Lit.var l) (Lit.is_pos l);
                  changed := true
              | _ -> ()
          end)
        db.clauses
    done;
    !conflict
end

let check_general ~require_empty f proof =
  let num_vars = Cnf.num_vars f in
  let db = Db.of_cnf f in
  let derived_empty = ref false in
  let rec go i = function
    | [] ->
        if (not require_empty) || !derived_empty then Ok ()
        else Error "proof does not derive the empty clause"
    | Drat.Add lits :: rest ->
        let assumed = List.map Lit.negate lits in
        if Db.propagates_to_conflict db ~assumed num_vars then begin
          if lits = [] then derived_empty := true;
          Db.add db lits;
          go (i + 1) rest
        end
        else Error (Printf.sprintf "step %d: clause is not RUP" i)
    | Drat.Delete lits :: rest ->
        Db.delete db lits;
        go (i + 1) rest
  in
  go 0 proof

let check f proof = check_general ~require_empty:true f proof
let check_steps f proof = check_general ~require_empty:false f proof
