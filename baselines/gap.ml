let scan ?(normalized = true) (t : Qubo.Encode.t) ~keep =
  let n = t.Qubo.Encode.num_original_vars in
  if n > 20 then invalid_arg "Gap: too many variables for exhaustive scan";
  let obj = Qubo.Encode.objective t in
  let scale = if normalized then 1. /. Qubo.Normalize.d_star obj else 1. in
  let best = ref infinity in
  for bits = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun v -> bits land (1 lsl v) <> 0) in
    if keep x then begin
      let e = Qubo.Pbq.eval_array obj (Qubo.Encode.best_aux t x) *. scale in
      if e < !best then best := e
    end
  done;
  if !best = infinity then invalid_arg "Gap: no assignment in scan domain";
  !best

let energy_gap ?normalized t =
  scan ?normalized t ~keep:(fun x -> not (Qubo.Encode.clauses_satisfied t x))

let min_energy ?normalized t = scan ?normalized t ~keep:(fun _ -> true)
