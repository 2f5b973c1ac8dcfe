type stats = { decisions : int; propagations : int; backtracks : int }

exception Budget

let solve ?(max_decisions = max_int) f =
  let n = Sat.Cnf.num_vars f in
  let assign = Partial.create n in
  let decisions = ref 0 and propagations = ref 0 and backtracks = ref 0 in
  (* returns the literals it assigned, or None on conflict *)
  let propagate () =
    let assigned = ref [] in
    let changed = ref true in
    let conflict = ref false in
    while !changed && not !conflict do
      changed := false;
      Sat.Cnf.iter_clauses
        (fun _ c ->
          if not !conflict then
            match Partial.clause_status assign c with
            | `Falsified -> conflict := true
            | `Unit l ->
                Partial.set assign (Sat.Lit.var l) (Sat.Lit.is_pos l);
                incr propagations;
                assigned := Sat.Lit.var l :: !assigned;
                changed := true
            | `Satisfied | `Unresolved -> ())
        f
    done;
    if !conflict then begin
      List.iter (Partial.unset assign) !assigned;
      None
    end
    else Some !assigned
  in
  (* branching: unassigned variable with the most occurrences *)
  let pick () =
    let best = ref (-1) and best_count = ref (-1) in
    for v = 0 to n - 1 do
      if Partial.value assign v = Partial.Unassigned then begin
        let count = List.length (Sat.Cnf.clauses_of_var f v) in
        if count > !best_count then begin
          best := v;
          best_count := count
        end
      end
    done;
    if !best < 0 then None else Some !best
  in
  let rec search () =
    match propagate () with
    | None -> false
    | Some propagated -> (
        let undo_and_fail () =
          List.iter (Partial.unset assign) propagated;
          incr backtracks;
          false
        in
        match pick () with
        | None ->
            if Sat.Assignment.satisfies (Partial.to_bools assign ~default:false) f then true
            else undo_and_fail ()
        | Some v ->
            incr decisions;
            if !decisions > max_decisions then raise Budget;
            let try_value b =
              Partial.set assign v b;
              let ok = search () in
              if not ok then Partial.unset assign v;
              ok
            in
            if try_value true || try_value false then true else undo_and_fail ())
  in
  let result =
    try
      if Sat.Cnf.num_clauses f = 0 then Cdcl.Solver.Sat (Array.make n false)
      else if search () then Cdcl.Solver.Sat (Partial.to_bools assign ~default:false)
      else Cdcl.Solver.Unsat
    with Budget -> Cdcl.Solver.Unknown Sat.Answer.Budget
  in
  (result, { decisions = !decisions; propagations = !propagations; backtracks = !backtracks })
