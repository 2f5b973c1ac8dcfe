type sub = {
  clause_index : int;
  sub_index : int;
  sub_vars : int list;
  penalty : Pbq.t;
  mutable alpha : float;
}

type t = {
  clauses : Sat.Clause.t array;
  num_original_vars : int;
  num_total_vars : int;
  aux_of_clause : int array;
  subs : sub array;
}

(* H_l(x) as an affine form (c, k) meaning c + k·x: positive literal = x,
   negative literal = 1 - x *)
let lit_affine l = if Sat.Lit.is_pos l then (0., 1.) else (1., -1.)

(* add the product of two affine literal forms (c1 + k1·x1)(c2 + k2·x2) *)
let add_product pbq (c1, k1) v1 (c2, k2) v2 scale =
  Pbq.add_const pbq (scale *. c1 *. c2);
  Pbq.add_linear pbq v1 (scale *. k1 *. c2);
  Pbq.add_linear pbq v2 (scale *. k2 *. c1);
  if v1 <> v2 then Pbq.add_quad pbq v1 v2 (scale *. k1 *. k2)
  else Pbq.add_linear pbq v1 (scale *. k1 *. k2) (* x² = x *)

let add_affine pbq (c, k) v scale =
  Pbq.add_const pbq (scale *. c);
  Pbq.add_linear pbq v (scale *. k)

(* Equation 4, first sub-clause: a ↔ (l1 ∨ l2)
   H = a + H1 + H2 - 2aH1 - 2aH2 + H1H2 *)
let penalty_equiv a l1 l2 =
  let h = Pbq.create () in
  let v1 = Sat.Lit.var l1 and v2 = Sat.Lit.var l2 in
  let f1 = lit_affine l1 and f2 = lit_affine l2 in
  Pbq.add_linear h a 1.;
  add_affine h f1 v1 1.;
  add_affine h f2 v2 1.;
  add_product h (0., 1.) a f1 v1 (-2.);
  add_product h (0., 1.) a f2 v2 (-2.);
  add_product h f1 v1 f2 v2 1.;
  h

(* Equation 4, second sub-clause: l3 ∨ a, H = 1 - a - H3 + aH3 *)
let penalty_or_aux a l3 =
  let h = Pbq.create () in
  let v3 = Sat.Lit.var l3 in
  let f3 = lit_affine l3 in
  Pbq.add_const h 1.;
  Pbq.add_linear h a (-1.);
  add_affine h f3 v3 (-1.);
  add_product h (0., 1.) a f3 v3 1.;
  h

(* direct penalty for a clause of ≤ 2 literals: Π (1 - H_li) *)
let penalty_small lits =
  let h = Pbq.create () in
  (match lits with
  | [] -> Pbq.add_const h 1. (* empty clause: always violated *)
  | [ l ] ->
      let c, k = lit_affine l in
      add_affine h (1. -. c, -.k) (Sat.Lit.var l) 1.
  | [ l1; l2 ] ->
      let c1, k1 = lit_affine l1 and c2, k2 = lit_affine l2 in
      add_product h (1. -. c1, -.k1) (Sat.Lit.var l1) (1. -. c2, -.k2) (Sat.Lit.var l2) 1.
  | _ -> assert false);
  h

(* one auxiliary per 3-literal clause, numbered from [num_vars] in clause
   order; [who] names the caller in the error for longer clauses *)
let number_aux ~who ~num_vars clauses =
  let next = ref num_vars in
  let aux_of_clause = Array.make (Array.length clauses) (-1) in
  Array.iteri
    (fun k c ->
      match Sat.Clause.size c with
      | 3 ->
          aux_of_clause.(k) <- !next;
          incr next
      | 0 | 1 | 2 -> ()
      | _ -> invalid_arg (who ^ ": clause with more than 3 literals"))
    clauses;
  (aux_of_clause, !next)

let aux_numbering ~num_vars clauses = number_aux ~who:"Encode.aux_numbering" ~num_vars clauses

let encode ~num_vars clause_list =
  let clauses = Array.of_list clause_list in
  let aux_of_clause, num_total_vars = number_aux ~who:"Encode.encode" ~num_vars clauses in
  let subs = ref [] in
  Array.iteri
    (fun k c ->
      match Sat.Clause.lits c with
      | l1 :: l2 :: l3 :: [] ->
          let a = aux_of_clause.(k) in
          subs :=
            {
              clause_index = k;
              sub_index = 2;
              sub_vars = [ a; Sat.Lit.var l3 ];
              penalty = penalty_or_aux a l3;
              alpha = 1.;
            }
            :: {
                 clause_index = k;
                 sub_index = 1;
                 sub_vars = [ a; Sat.Lit.var l1; Sat.Lit.var l2 ];
                 penalty = penalty_equiv a l1 l2;
                 alpha = 1.;
               }
            :: !subs
      | small ->
          (* at most 2 literals: [number_aux] rejected longer clauses *)
          subs :=
            {
              clause_index = k;
              sub_index = 1;
              sub_vars = List.map Sat.Lit.var small;
              penalty = penalty_small small;
              alpha = 1.;
            }
            :: !subs)
    clauses;
  {
    clauses;
    num_original_vars = num_vars;
    num_total_vars;
    aux_of_clause;
    subs = Array.of_list (List.rev !subs);
  }

let set_clause_weights t weights =
  if Array.length weights <> Array.length t.clauses then
    invalid_arg
      (Printf.sprintf "Encode.set_clause_weights: %d weights for %d clauses"
         (Array.length weights) (Array.length t.clauses));
  let wmax = Array.fold_left Float.max 0. weights in
  Array.iter
    (fun w ->
      if not (w > 0.) then invalid_arg "Encode.set_clause_weights: weight must be > 0")
    weights;
  Array.iter
    (fun s -> s.alpha <- s.alpha *. weights.(s.clause_index) /. wmax)
    t.subs

let objective t =
  let h = Pbq.create () in
  Array.iter (fun s -> Pbq.add_scaled h s.penalty s.alpha) t.subs;
  h
