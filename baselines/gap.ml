let clauses_satisfied (t : Qubo.Encode.t) x =
  Array.for_all (Sat.Assignment.satisfies_clause x) t.Qubo.Encode.clauses

let best_aux (t : Qubo.Encode.t) x =
  let open Qubo.Encode in
  let full = Array.make t.num_total_vars false in
  Array.blit x 0 full 0 (Array.length x);
  let subs_by_clause = Array.make (Array.length t.clauses) [] in
  Array.iter
    (fun s -> subs_by_clause.(s.clause_index) <- s :: subs_by_clause.(s.clause_index))
    t.subs;
  (* auxiliaries are per-clause, so the argmin decomposes clause-wise and
     each clause's auxiliaries are enumerated exactly *)
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
        let energy () =
          List.fold_left
            (fun acc s -> acc +. (s.alpha *. Qubo.Pbq.eval s.penalty (Array.get full)))
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

let min_energy_for t x = Qubo.Pbq.eval (Qubo.Encode.objective t) (Array.get (best_aux t x))

let scan ?(normalized = true) (t : Qubo.Encode.t) ~keep =
  let n = t.Qubo.Encode.num_original_vars in
  if n > 20 then invalid_arg "Gap: too many variables for exhaustive scan";
  let obj = Qubo.Encode.objective t in
  let scale = if normalized then 1. /. Qubo.Normalize.d_star obj else 1. in
  let best = ref infinity in
  for bits = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun v -> bits land (1 lsl v) <> 0) in
    if keep x then begin
      let e = Qubo.Pbq.eval obj (Array.get (best_aux t x)) *. scale in
      if e < !best then best := e
    end
  done;
  if !best = infinity then invalid_arg "Gap: no assignment in scan domain";
  !best

let energy_gap ?normalized t =
  scan ?normalized t ~keep:(fun x -> not (clauses_satisfied t x))

let min_energy ?normalized t = scan ?normalized t ~keep:(fun _ -> true)
