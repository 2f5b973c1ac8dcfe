type t = { sat : Gaussian.t; unsat : Gaussian.t; prior_sat : float }

let fit ~sat ~unsat =
  if Array.length sat = 0 || Array.length unsat = 0 then
    invalid_arg "Naive_bayes.fit: empty class";
  let n_sat = float_of_int (Array.length sat)
  and n_unsat = float_of_int (Array.length unsat) in
  {
    sat = Gaussian.fit sat;
    unsat = Gaussian.fit unsat;
    prior_sat = n_sat /. (n_sat +. n_unsat);
  }

let posterior_sat m e =
  let ls = Gaussian.log_pdf m.sat e +. log m.prior_sat in
  let lu = Gaussian.log_pdf m.unsat e +. log (1. -. m.prior_sat) in
  (* stable logistic of the log-odds *)
  1. /. (1. +. exp (lu -. ls))

let predict m e = if posterior_sat m e >= 0.5 then `Sat else `Unsat

let accuracy m ~sat ~unsat =
  let correct = ref 0 in
  Array.iter (fun e -> if predict m e = `Sat then incr correct) sat;
  Array.iter (fun e -> if predict m e = `Unsat then incr correct) unsat;
  float_of_int !correct /. float_of_int (Array.length sat + Array.length unsat)

type partition = { sat_cut : float; unsat_cut : float }

(* Scan only the band between the two class means: with unequal variances
   the likelihood ratio is non-monotone in the far tails (the wider Gaussian
   wins at both extremes), but inside the band the posterior decays from the
   satisfiable side to the unsatisfiable side, which is the regime the
   backend classifies. *)
let partition ?(confidence = 0.9) m =
  let lo = Float.min m.sat.Gaussian.mu m.unsat.Gaussian.mu in
  let hi = Float.max m.sat.Gaussian.mu m.unsat.Gaussian.mu in
  let steps = 4000 in
  let step = (hi -. lo) /. float_of_int (max steps 1) in
  let sat_cut = ref lo and unsat_cut = ref hi in
  for i = 0 to steps do
    let e = lo +. (float_of_int i *. step) in
    let p = posterior_sat m e in
    if p >= confidence then sat_cut := e;
    if 1. -. p >= confidence && e < !unsat_cut then unsat_cut := e
  done;
  if !sat_cut > !unsat_cut then begin
    (* perfectly separated or inverted: fall back to the decision boundary *)
    let mid = (!sat_cut +. !unsat_cut) /. 2. in
    sat_cut := mid;
    unsat_cut := mid
  end;
  { sat_cut = !sat_cut; unsat_cut = !unsat_cut }
