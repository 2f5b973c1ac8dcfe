let penalised_cost all x =
  Array.fold_left
    (fun acc (wt, c) -> if Sat.Assignment.satisfies_clause x c then acc else acc + wt)
    0 all

let minimise ~max_flips ?(should_stop = fun () -> false) rng ~num_vars all =
  let n = max num_vars 1 in
  let x = Array.init n (fun _ -> Stats.Rng.bool rng) in
  let best = ref (Array.copy x) in
  let best_cost = ref (penalised_cost all x) in
  let flips = ref 0 in
  while !flips < max_flips && !best_cost > 0 && not (should_stop ()) do
    (* consing over a left fold: the list runs in descending clause order *)
    let falsified =
      Array.fold_left
        (fun acc (_, c) -> if Sat.Assignment.satisfies_clause x c then acc else c :: acc)
        [] all
    in
    (match falsified with
    | [] -> flips := max_flips
    | cs -> (
        let c = List.nth cs (Stats.Rng.int rng (List.length cs)) in
        match Sat.Clause.vars c with
        | [] -> ()
        | vars ->
            let v = List.nth vars (Stats.Rng.int rng (List.length vars)) in
            x.(v) <- not x.(v);
            let cost = penalised_cost all x in
            if cost < !best_cost then begin
              best_cost := cost;
              best := Array.copy x
            end));
    incr flips
  done;
  (!best_cost, !best)

let incumbent ?(max_flips = 20_000) ?should_stop rng w =
  let top = Sat.Wcnf.top w in
  minimise ~max_flips ?should_stop rng ~num_vars:(Sat.Wcnf.num_vars w)
    (Array.append
       (Array.map (fun c -> (top, c)) w.Sat.Wcnf.hard)
       (Array.map (fun s -> (s.Sat.Wcnf.weight, s.Sat.Wcnf.clause)) w.Sat.Wcnf.soft))

let walksat ?(max_flips = 10_000) ?(restarts = 10) ?(noise = 0.5)
    ?(should_stop = fun () -> false) rng f =
  let n = Sat.Cnf.num_vars f in
  let m = Sat.Cnf.num_clauses f in
  let total_flips = ref 0 in
  let restarts_used = ref 0 in
  let result = ref None in
  let model = Array.make (max n 1) false in
  let lit_true l = if Sat.Lit.is_pos l then model.(Sat.Lit.var l) else not model.(Sat.Lit.var l) in
  let clause_sat k = Array.exists lit_true (Sat.Cnf.clause f k : Sat.Clause.t :> Sat.Lit.t array) in
  let unsat_clauses () =
    let acc = ref [] in
    for k = m - 1 downto 0 do
      if not (clause_sat k) then acc := k :: !acc
    done;
    !acc
  in
  let break_count v =
    model.(v) <- not model.(v);
    let broken =
      List.fold_left
        (fun acc k -> if clause_sat k then acc else acc + 1)
        0
        (Sat.Cnf.clauses_of_var f v)
    in
    model.(v) <- not model.(v);
    broken
  in
  let attempt () =
    for v = 0 to n - 1 do
      model.(v) <- Stats.Rng.bool rng
    done;
    let flips = ref 0 in
    let solved = ref (unsat_clauses () = []) in
    while (not !solved) && !flips < max_flips && not (!flips land 63 = 0 && should_stop ()) do
      (match unsat_clauses () with
      | [] -> solved := true
      | unsat ->
          let k = List.nth unsat (Stats.Rng.int rng (List.length unsat)) in
          let vars = Sat.Clause.vars (Sat.Cnf.clause f k) in
          let v =
            if Stats.Rng.float rng 1.0 < noise then
              List.nth vars (Stats.Rng.int rng (List.length vars))
            else
              fst
                (List.fold_left
                   (fun (best, best_b) v ->
                     let b = break_count v in
                     if b < best_b then (v, b) else (best, best_b))
                   (List.hd vars, break_count (List.hd vars))
                   (List.tl vars))
          in
          model.(v) <- not model.(v));
      incr flips;
      incr total_flips
    done;
    !solved
  in
  (* an empty clause is never repairable: no search at all *)
  if Array.exists Sat.Clause.is_empty f.Sat.Cnf.clauses then
    (None, { Cdcl.Walksat.flips = 0; restarts_used = 0 })
  else begin
    (try
       for _ = 1 to restarts do
         if should_stop () then raise Exit;
         incr restarts_used;
         if attempt () then begin
           result := Some (Array.copy model);
           raise Exit
         end
       done
     with Exit -> ());
    (!result, { Cdcl.Walksat.flips = !total_flips; restarts_used = !restarts_used })
  end
