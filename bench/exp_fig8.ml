(* Figure 8: energy distribution of satisfiable vs unsatisfiable problems on
   the (simulated) QA hardware, the Gaussian Naive Bayes fit, and the 90%
   confidence-interval cut points.  Paper: cuts at ~4.5 and ~8.  The solver
   does not fit at run time: it reads two constant cuts from Hyqsat.Backend,
   printed under the fitted ones so a refit shows as a diff here. *)

let run (ctx : Bench_util.ctx) =
  let open Baselines in
  let problems = match ctx.Bench_util.scale with `Paper -> 200 | `Small -> 40 in
  Bench_util.header "Figure 8 — QA energy distributions + GNB fit"
    "separable classes; 90% confidence cuts near 4.5 (sat) and 8 (unsat)";
  let rng = Bench_util.rng_of ctx 8 in
  let graph = Chimera.Graph.standard_2000q () in
  let calib = Calibration.calibrate ~problems ~noise:Anneal.Noise.default_2000q rng graph in
  let model = calib.Calibration.model in
  Printf.printf "satisfiable   energies: n=%-4d %s\n"
    (Array.length calib.Calibration.sat_energies)
    (Format.asprintf "%a" Gaussian.pp model.Naive_bayes.sat);
  Printf.printf "unsatisfiable energies: n=%-4d %s\n"
    (Array.length calib.Calibration.unsat_energies)
    (Format.asprintf "%a" Gaussian.pp model.Naive_bayes.unsat);
  Printf.printf "confidence cuts: satisfiable <= %.2f < uncertain <= %.2f < unsatisfiable\n"
    calib.Calibration.partition.Naive_bayes.sat_cut
    calib.Calibration.partition.Naive_bayes.unsat_cut;
  Printf.printf "solver cuts:     satisfiable <= %.2f < uncertain <= %.2f < unsatisfiable"
    Hyqsat.Backend.sat_cut Hyqsat.Backend.unsat_cut;
  print_endline "  (Hyqsat.Backend constants)";
  Printf.printf "model accuracy on calibration sample: %.1f%%\n\n"
    (100.
    *. Naive_bayes.accuracy model ~sat:calib.Calibration.sat_energies
         ~unsat:calib.Calibration.unsat_energies);
  print_endline "satisfiable-class energy histogram:";
  Format.printf "%a@." Descriptive.pp_histogram
    (Descriptive.histogram ~bins:10 calib.Calibration.sat_energies);
  print_endline "unsatisfiable-class energy histogram:";
  Format.printf "%a@." Descriptive.pp_histogram
    (Descriptive.histogram ~bins:10 calib.Calibration.unsat_energies)
