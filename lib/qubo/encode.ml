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

let encode_ksat ~num_vars clause_list =
  let clauses = Array.of_list clause_list in
  let next_aux = ref num_vars in
  let fresh () =
    let a = !next_aux in
    incr next_aux;
    a
  in
  let aux_of_clause = Array.make (Array.length clauses) (-1) in
  let subs = ref [] in
  let push s = subs := s :: !subs in
  Array.iteri
    (fun k c ->
      let lits = Sat.Clause.lits c in
      if List.length lits <= 3 then begin
        (* reuse the 3-SAT machinery clause-wise *)
        let small = encode ~num_vars:!next_aux [ c ] in
        next_aux := small.num_total_vars;
        aux_of_clause.(k) <- small.aux_of_clause.(0);
        Array.iter
          (fun s -> push { s with clause_index = k; sub_vars = s.sub_vars })
          small.subs
      end
      else begin
        match lits with
        | l1 :: l2 :: rest ->
            (* chain: a1 ↔ (l1 ∨ l2); a_{i+1} ↔ (a_i ∨ l_{i+2}); (a ∨ lk) *)
            let a1 = fresh () in
            push
              {
                clause_index = k;
                sub_index = 1;
                sub_vars = [ a1; Sat.Lit.var l1; Sat.Lit.var l2 ];
                penalty = penalty_equiv a1 l1 l2;
                alpha = 1.;
              };
            let rec chain prev idx = function
              | [ lk ] ->
                  aux_of_clause.(k) <- prev;
                  push
                    {
                      clause_index = k;
                      sub_index = idx;
                      sub_vars = [ prev; Sat.Lit.var lk ];
                      penalty = penalty_or_aux prev lk;
                      alpha = 1.;
                    }
              | l :: rest ->
                  let a = fresh () in
                  push
                    {
                      clause_index = k;
                      sub_index = idx;
                      sub_vars = [ a; prev; Sat.Lit.var l ];
                      penalty = penalty_equiv a (Sat.Lit.pos prev) l;
                      alpha = 1.;
                    };
                  chain a (idx + 1) rest
              | [] -> assert false
            in
            chain a1 2 rest
        | _ -> assert false
      end)
    clauses;
  {
    clauses;
    num_original_vars = num_vars;
    num_total_vars = !next_aux;
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

let clauses_satisfied t x =
  let a = Sat.Assignment.of_bools x in
  Array.for_all (fun c -> Sat.Assignment.satisfies_clause a c) t.clauses

let best_aux t x =
  let full = Array.make t.num_total_vars false in
  Array.blit x 0 full 0 (Array.length x);
  let subs_by_clause = Array.make (Array.length t.clauses) [] in
  Array.iter
    (fun s -> subs_by_clause.(s.clause_index) <- s :: subs_by_clause.(s.clause_index))
    t.subs;
  (* auxiliaries are per-clause, so the argmin decomposes clause-wise; each
     clause has 1 auxiliary in the 3-SAT encoding and k-2 in the K-SAT chain
     encoding, enumerated exactly *)
  Array.iteri
    (fun k _ ->
      let auxs =
        List.sort_uniq Int.compare
          (List.concat_map
             (fun s -> List.filter (fun v -> v >= t.num_original_vars) s.sub_vars)
             subs_by_clause.(k))
      in
      let na = List.length auxs in
      if na > 0 then begin
        if na > 16 then invalid_arg "Encode.best_aux: too many auxiliaries per clause";
        let energy () =
          List.fold_left
            (fun acc s -> acc +. (s.alpha *. Pbq.eval_array s.penalty full))
            0. subs_by_clause.(k)
        in
        let best_bits = ref 0 and best_e = ref infinity in
        for bits = 0 to (1 lsl na) - 1 do
          List.iteri (fun i a -> full.(a) <- bits land (1 lsl i) <> 0) auxs;
          let e = energy () in
          if e < !best_e then begin
            best_e := e;
            best_bits := bits
          end
        done;
        List.iteri (fun i a -> full.(a) <- !best_bits land (1 lsl i) <> 0) auxs
      end)
    t.clauses;
  full

let min_energy_for t x = Pbq.eval_array (objective t) (best_aux t x)
