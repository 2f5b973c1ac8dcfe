type t = { clauses : Clause.t list; num_vars : int }

let at_most_one ~num_vars lits =
  let lits = Array.of_list lits in
  let n = Array.length lits in
  if n <= 1 then { clauses = []; num_vars }
  else begin
    (* register s i (0-based): "one of lits[0..i] is true" *)
    let s i = num_vars + i in
    let clauses = ref [] in
    let emit lits = clauses := Clause.make lits :: !clauses in
    emit [ Lit.negate lits.(0); Lit.pos (s 0) ];
    for i = 1 to n - 1 do
      if i < n - 1 then begin
        (* carry: s_{i-1} -> s_i;  set: l_i -> s_i *)
        emit [ Lit.neg_of (s (i - 1)); Lit.pos (s i) ];
        emit [ Lit.negate lits.(i); Lit.pos (s i) ]
      end;
      (* overflow: l_i ∧ s_{i-1} is forbidden *)
      emit [ Lit.negate lits.(i); Lit.neg_of (s (i - 1)) ]
    done;
    { clauses = List.rev !clauses; num_vars = num_vars + n - 1 }
  end

(* ---- weighted bounds via a binary adder network (Warners 1998) ----

   Each weighted literal [(w, l)] is read as the binary number whose set
   bits of [w] are [l] and whose clear bits are constant zero; the numbers
   are summed pairwise with Tseitin-encoded ripple-carry adders.  The
   encoding is a full equivalence (both implication directions), so the
   output bits *are* the binary value of the weighted true-literal count —
   which lets [bound_clauses] compare them against any constant without
   fresh variables.  Size: O(m · log sum_weights) variables and clauses,
   never the O(sum_weights) of a unary expansion. *)

type adder = {
  sum_bits : Lit.t option array;
  adder_clauses : Clause.t list;
  adder_num_vars : int;
}

let weighted_sum ~num_vars wlits =
  let next = ref num_vars in
  let clauses = ref [] in
  let emit lits = clauses := Clause.make lits :: !clauses in
  let fresh () =
    let v = !next in
    incr next;
    Lit.pos v
  in
  let half_sum a b =
    (* s <-> a xor b *)
    let s = fresh () in
    emit [ Lit.negate a; Lit.negate b; Lit.negate s ];
    emit [ a; b; Lit.negate s ];
    emit [ Lit.negate a; b; s ];
    emit [ a; Lit.negate b; s ];
    s
  in
  let half_carry a b =
    (* t <-> a /\ b *)
    let t = fresh () in
    emit [ Lit.negate a; Lit.negate b; t ];
    emit [ a; Lit.negate t ];
    emit [ b; Lit.negate t ];
    t
  in
  let full_sum a b c =
    (* s <-> a xor b xor c *)
    let s = fresh () in
    emit [ a; b; c; Lit.negate s ];
    emit [ a; Lit.negate b; Lit.negate c; Lit.negate s ];
    emit [ Lit.negate a; b; Lit.negate c; Lit.negate s ];
    emit [ Lit.negate a; Lit.negate b; c; Lit.negate s ];
    emit [ Lit.negate a; Lit.negate b; Lit.negate c; s ];
    emit [ Lit.negate a; b; c; s ];
    emit [ a; Lit.negate b; c; s ];
    emit [ a; b; Lit.negate c; s ];
    s
  in
  let full_carry a b c =
    (* t <-> at least two of a, b, c *)
    let t = fresh () in
    emit [ Lit.negate a; Lit.negate b; t ];
    emit [ Lit.negate a; Lit.negate c; t ];
    emit [ Lit.negate b; Lit.negate c; t ];
    emit [ a; b; Lit.negate t ];
    emit [ a; c; Lit.negate t ];
    emit [ b; c; Lit.negate t ];
    t
  in
  (* one adder cell over constant-zero-aware bit inputs -> (sum, carry) *)
  let add3 a b c =
    match List.filter_map Fun.id [ a; b; c ] with
    | [] -> (None, None)
    | [ x ] -> (Some x, None)
    | [ x; y ] -> (Some (half_sum x y), Some (half_carry x y))
    | [ x; y; z ] -> (Some (full_sum x y z), Some (full_carry x y z))
    | _ -> assert false
  in
  let add_numbers x y =
    let n = max (Array.length x) (Array.length y) in
    let out = Array.make (n + 1) None in
    let carry = ref None in
    for i = 0 to n - 1 do
      let a = if i < Array.length x then x.(i) else None in
      let b = if i < Array.length y then y.(i) else None in
      let s, c = add3 a b !carry in
      out.(i) <- s;
      carry := c
    done;
    out.(n) <- !carry;
    out
  in
  let number_of (w, l) =
    if w < 0 then invalid_arg "Cardinality.weighted_sum: negative weight";
    let bits = ref [] and w' = ref w in
    while !w' > 0 do
      bits := (if !w' land 1 = 1 then Some l else None) :: !bits;
      w' := !w' lsr 1
    done;
    Array.of_list (List.rev !bits)
  in
  let rec reduce = function
    | [] -> [||]
    | [ x ] -> x
    | xs ->
        let rec pair = function
          | a :: b :: rest -> add_numbers a b :: pair rest
          | rest -> rest
        in
        reduce (pair xs)
  in
  let bits = reduce (List.map number_of wlits) in
  (* trim constant-zero high bits *)
  let width = ref (Array.length bits) in
  while !width > 0 && bits.(!width - 1) = None do
    decr width
  done;
  {
    sum_bits = Array.sub bits 0 !width;
    adder_clauses = List.rev !clauses;
    adder_num_vars = !next;
  }

let bound_clauses adder ~k =
  if k < 0 then invalid_arg "Cardinality.bound_clauses: negative k";
  let bits = adder.sum_bits in
  let nb = Array.length bits in
  (* the sum cannot exceed 2^nb - 1; a bound at least that wide binds nothing *)
  if k asr nb > 0 then []
  else begin
    let bbit i = (k lsr i) land 1 = 1 in
    let out = ref [] in
    for i = 0 to nb - 1 do
      (* sum <= k  iff  for every clear bound bit i, either some higher set
         bound bit is slack (its sum bit is 0) or sum bit i is 0 *)
      if not (bbit i) then
        match bits.(i) with
        | None -> ()
        | Some o_i ->
            let slack = ref [] and trivially_sat = ref false in
            for j = i + 1 to nb - 1 do
              if bbit j then
                match bits.(j) with
                | None -> trivially_sat := true (* that sum bit is constant 0 *)
                | Some o_j -> slack := Lit.negate o_j :: !slack
            done;
            if not !trivially_sat then
              out := Clause.make (Lit.negate o_i :: !slack) :: !out
    done;
    List.rev !out
  end

let at_most_weight ~num_vars wlits ~k =
  let adder = weighted_sum ~num_vars wlits in
  {
    clauses = adder.adder_clauses @ bound_clauses adder ~k;
    num_vars = adder.adder_num_vars;
  }
