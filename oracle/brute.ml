let check_limit limit_vars f =
  if Sat.Cnf.num_vars f > limit_vars then
    invalid_arg
      (Printf.sprintf "Brute: %d vars exceeds limit %d" (Sat.Cnf.num_vars f) limit_vars)

let assignment_of_bits n bits =
  Array.init n (fun v -> bits land (1 lsl v) <> 0)

let fold ?(limit_vars = 24) f acc step =
  check_limit limit_vars f;
  let n = Sat.Cnf.num_vars f in
  let acc = ref acc in
  (try
     for bits = 0 to (1 lsl n) - 1 do
       let model = assignment_of_bits n bits in
       match step !acc model (Sat.Assignment.satisfies model f) with
       | `Stop v ->
           acc := v;
           raise Exit
       | `Continue v -> acc := v
     done
   with Exit -> ());
  !acc

let solve ?limit_vars f =
  fold ?limit_vars f None (fun acc model sat ->
      if sat then `Stop (Some model) else `Continue acc)

let count_models ?limit_vars f =
  fold ?limit_vars f 0 (fun acc _ sat -> `Continue (if sat then acc + 1 else acc))

let min_cost ?(limit_vars = 24) w =
  let n = Sat.Wcnf.num_vars w in
  if n > limit_vars then
    invalid_arg (Printf.sprintf "Brute: %d vars exceeds limit %d" n limit_vars);
  let best = ref None in
  for bits = 0 to (1 lsl n) - 1 do
    let model = assignment_of_bits n bits in
    if Sat.Wcnf.hard_satisfied w model then begin
      let c = Sat.Wcnf.cost w model in
      match !best with
      | Some (c', _) when c' <= c -> ()
      | _ -> best := Some (c, model)
    end
  done;
  !best

let min_unsatisfied ?(limit_vars = 24) f =
  check_limit limit_vars f;
  let n = Sat.Cnf.num_vars f in
  let best = ref max_int in
  for bits = 0 to (1 lsl n) - 1 do
    let u = Partial.num_unsatisfied (assignment_of_bits n bits) f in
    if u < !best then best := u
  done;
  if Sat.Cnf.num_clauses f = 0 then 0 else !best
