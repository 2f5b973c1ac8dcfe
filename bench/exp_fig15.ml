(* Figure 15: the noise-optimising coefficient adjustment — (a) energy-gap
   increase on random problems, (b) shrink of the uncertain region and GNB
   accuracy gain.  Paper: gap up to 1.8x; uncertainty 28.1% -> 14.0%;
   accuracy 84.76% -> 97.53%.

   The gain regime is mixed-width, moderately-sparse clause sets: 1- and
   2-literal clauses carry small per-clause coefficients (d_sub 0.5 / 1
   against a 3-clause d* of 2), so they are exactly the "weak" sub-clauses
   the adjustment boosts.  Real queue prefixes (circuit benchmarks) are full
   of such clauses. *)

(* a clause set with the paper benchmarks' width mix *)
let mixed_cnf rng ~num_vars ~num_clauses =
  let clause () =
    let width =
      let p = Stats.Rng.float rng 1.0 in
      if p < 0.15 then 1 else if p < 0.55 then 2 else 3
    in
    let vars = Stats.Rng.sample_without_replacement rng (min width num_vars) num_vars in
    Sat.Clause.make (List.map (fun v -> Sat.Lit.make v (Stats.Rng.bool rng)) vars)
  in
  Sat.Cnf.make ~num_vars (List.init num_clauses (fun _ -> clause ()))

let gap_gain (ctx : Bench_util.ctx) salt ~num_vars ~num_clauses =
  let rng = Bench_util.rng_of ctx (1500 + salt) in
  let f = mixed_cnf rng ~num_vars ~num_clauses in
  let enc = Qubo.Encode.encode ~num_vars (Sat.Cnf.clauses f) in
  match Baselines.Gap.energy_gap enc with
  | before when before > 1e-9 ->
      ignore (Qubo.Adjust.adjust enc);
      let after = Baselines.Gap.energy_gap enc in
      Some (before, after)
  | _ -> None
  | exception Invalid_argument _ -> None

(* "uncertain" sample: neither class reaches 90% posterior — the paper's
   uncertainty-interval share, robust to a degenerate partition *)
let uncertain_share model samples =
  let uncertain =
    List.length
      (List.filter
         (fun e ->
           let p = Stats.Naive_bayes.posterior_sat model e in
           p > 0.1 && p < 0.9)
         samples)
  in
  100. *. float_of_int uncertain /. float_of_int (max 1 (List.length samples))

let run (ctx : Bench_util.ctx) =
  let gap_problems, cal_problems =
    match ctx.Bench_util.scale with `Paper -> (60, 100) | `Small -> (20, 30)
  in
  Bench_util.header "Figure 15 — noise-optimising coefficient adjustment"
    "energy gap up to 1.8x; uncertain region 28.1% -> 14.0%; GNB accuracy 84.76% -> 97.53%";
  (* (a) energy gap before/after, exhaustive on small mixed-width instances *)
  List.iter
    (fun (nv, nc) ->
      let gains = ref [] in
      for s = 1 to gap_problems do
        match gap_gain ctx ((nv * 1000) + s) ~num_vars:nv ~num_clauses:nc with
        | Some (before, after) -> gains := (after /. before) :: !gains
        | None -> ()
      done;
      if !gains <> [] then
        Printf.printf "gap gain (%2d vars, %3d clauses): avg %.2fx  max %.2fx  (n=%d)\n" nv nc
          (Bench_util.mean !gains) (Bench_util.fmax !gains) (List.length !gains))
    [ (12, 18); (15, 28); (18, 40) ];
  (* (b) GNB accuracy and uncertain-sample share, calibrated with and
     without the adjustment *)
  print_newline ();
  let measure adjust salt =
    let rng = Bench_util.rng_of ctx (1510 + salt) in
    let graph = Chimera.Graph.standard_2000q () in
    let calib = Hyqsat.Calibration.calibrate ~problems:cal_problems ~adjust rng graph in
    let samples =
      Array.to_list calib.Hyqsat.Calibration.sat_energies
      @ Array.to_list calib.Hyqsat.Calibration.unsat_energies
    in
    ( uncertain_share calib.Hyqsat.Calibration.model samples,
      100.
      *. Stats.Naive_bayes.accuracy calib.Hyqsat.Calibration.model
           ~sat:calib.Hyqsat.Calibration.sat_energies
           ~unsat:calib.Hyqsat.Calibration.unsat_energies )
  in
  let u0, a0 = measure false 0 in
  let u1, a1 = measure true 1 in
  Printf.printf "uncertain sample share: %5.1f%% -> %5.1f%% (with adjustment)\n" u0 u1;
  Printf.printf "GNB accuracy:           %5.1f%% -> %5.1f%% (with adjustment)\n" a0 a1
