(* Tests for [Stats.Rng] and the figure statistics in [Baselines]
   (Descriptive, Gaussian, Naive_bayes). *)

let rng_determinism () =
  let a = Stats.Rng.create ~seed:1 and b = Stats.Rng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Stats.Rng.int a 1000) (Stats.Rng.int b 1000)
  done;
  let c = Stats.Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Stats.Rng.int a 1000 <> Stats.Rng.int c 1000 then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let rng_sample_without_replacement () =
  let r = Stats.Rng.create ~seed:3 in
  for _ = 1 to 50 do
    let s = Stats.Rng.sample_without_replacement r 5 10 in
    Alcotest.(check int) "size" 5 (List.length s);
    Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
    List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 10)) s
  done

let rng_gaussian_moments () =
  let r = Stats.Rng.create ~seed:4 in
  let xs = Array.init 20000 (fun _ -> Stats.Rng.gaussian r ~mu:3.0 ~sigma:2.0) in
  Alcotest.(check bool) "mean close" true (Float.abs (Baselines.Descriptive.mean xs -. 3.0) < 0.1);
  Alcotest.(check bool) "std close" true (Float.abs (Baselines.Descriptive.std xs -. 2.0) < 0.1)

let descriptive_basics () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Baselines.Descriptive.mean xs);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Baselines.Descriptive.percentile xs 50.);
  Alcotest.(check (float 1e-9)) "variance" 2.0 (Baselines.Descriptive.variance xs);
  Alcotest.(check (float 1e-6)) "geomean of powers" 4.0
    (Baselines.Descriptive.geomean [| 2.; 8. |]);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Baselines.Descriptive.percentile xs 0.);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Baselines.Descriptive.percentile xs 100.);
  Alcotest.(check (float 1e-9)) "p25" 2.0 (Baselines.Descriptive.percentile xs 25.)

let descriptive_correlation () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = Array.map (fun x -> (2. *. x) +. 1.) xs in
  Alcotest.(check (float 1e-9)) "perfect positive" 1.0 (Baselines.Descriptive.correlation xs ys);
  let zs = Array.map (fun x -> -.x) xs in
  Alcotest.(check (float 1e-9)) "perfect negative" (-1.0) (Baselines.Descriptive.correlation xs zs)

let histogram_counts () =
  let xs = [| 0.; 0.5; 1.0; 1.5; 2.0; 2.5; 3.0; 3.5 |] in
  let h = Baselines.Descriptive.histogram ~bins:4 xs in
  Alcotest.(check int) "total preserved" 8 (Array.fold_left ( + ) 0 h.Baselines.Descriptive.counts);
  Alcotest.(check int) "bins" 4 (Array.length h.Baselines.Descriptive.counts)

let gaussian_log_pdf () =
  let g = { Baselines.Gaussian.mu = 0.; sigma = 1. } in
  Alcotest.(check (float 1e-4)) "pdf at 0" 0.39894 (exp (Baselines.Gaussian.log_pdf g 0.));
  Alcotest.(check (float 1e-4)) "pdf at 1.96" 0.05844 (exp (Baselines.Gaussian.log_pdf g 1.96))

let gaussian_fit () =
  let r = Stats.Rng.create ~seed:9 in
  let xs = Array.init 20000 (fun _ -> Stats.Rng.gaussian r ~mu:(-1.5) ~sigma:0.7) in
  let g = Baselines.Gaussian.fit xs in
  Alcotest.(check bool) "mu" true (Float.abs (g.Baselines.Gaussian.mu +. 1.5) < 0.05);
  Alcotest.(check bool) "sigma" true (Float.abs (g.Baselines.Gaussian.sigma -. 0.7) < 0.05)

let nb_model () =
  let r = Stats.Rng.create ~seed:10 in
  let sat = Array.init 2000 (fun _ -> Stats.Rng.gaussian r ~mu:2.0 ~sigma:1.0) in
  let unsat = Array.init 2000 (fun _ -> Stats.Rng.gaussian r ~mu:10.0 ~sigma:2.0) in
  let m = Baselines.Naive_bayes.fit ~sat ~unsat in
  Alcotest.(check bool) "low energy -> sat" true (Baselines.Naive_bayes.predict m 1.0 = `Sat);
  Alcotest.(check bool) "high energy -> unsat" true (Baselines.Naive_bayes.predict m 12.0 = `Unsat);
  let acc = Baselines.Naive_bayes.accuracy m ~sat ~unsat in
  Alcotest.(check bool) "accuracy high" true (acc > 0.95);
  let p = Baselines.Naive_bayes.partition m in
  Alcotest.(check bool) "sat cut below unsat cut" true
    (p.Baselines.Naive_bayes.sat_cut <= p.Baselines.Naive_bayes.unsat_cut);
  Alcotest.(check bool) "posterior at sat_cut ~confidence" true
    (Baselines.Naive_bayes.posterior_sat m p.Baselines.Naive_bayes.sat_cut >= 0.88)

let nb_partition_intervals () =
  (* the fitted cuts mark the four intervals of paper §V-A on the energy
     axis: 0 (satisfiable), (0, sat_cut] (near satisfiable), (sat_cut,
     unsat_cut] (uncertain) and above unsat_cut (near unsatisfiable) *)
  let m =
    Baselines.Naive_bayes.fit
      ~sat:[| 1.0; 2.0; 3.0; 2.5; 1.5 |]
      ~unsat:[| 9.0; 10.0; 11.0; 10.5; 9.5 |]
  in
  let p = Baselines.Naive_bayes.partition m in
  let sat_cut = p.Baselines.Naive_bayes.sat_cut
  and unsat_cut = p.Baselines.Naive_bayes.unsat_cut in
  Alcotest.(check bool) "zero energy below the sat cut" true (0.0 < sat_cut);
  Alcotest.(check bool) "far energy near unsatisfiable" true (50.0 > unsat_cut);
  Alcotest.(check bool) "small energy near satisfiable" true (1.0 > 0.0 && 1.0 <= sat_cut);
  Alcotest.(check bool) "uncertain band between the cuts" true (sat_cut <= unsat_cut)

let nb_posterior_monotone =
  QCheck.Test.make ~name:"posterior decreases with energy between class means" ~count:50
    QCheck.(pair (float_range 0. 3.) (float_range 0. 3.))
    (fun (a, b) ->
      let m =
        Baselines.Naive_bayes.fit
          ~sat:[| a; a +. 1.; a +. 2. |]
          ~unsat:[| b +. 10.; b +. 11.; b +. 12. |]
      in
      let mu_s = m.Baselines.Naive_bayes.sat.Baselines.Gaussian.mu in
      let mu_u = m.Baselines.Naive_bayes.unsat.Baselines.Gaussian.mu in
      let e1 = mu_s +. (0.25 *. (mu_u -. mu_s)) in
      let e2 = mu_s +. (0.75 *. (mu_u -. mu_s)) in
      Baselines.Naive_bayes.posterior_sat m e1 >= Baselines.Naive_bayes.posterior_sat m e2)

let suite =
  [
    ( "stats.rng",
      [
        Alcotest.test_case "determinism" `Quick rng_determinism;
        Alcotest.test_case "sample w/o replacement" `Quick rng_sample_without_replacement;
        Alcotest.test_case "gaussian moments" `Slow rng_gaussian_moments;
      ] );
    ( "stats.descriptive",
      [
        Alcotest.test_case "basics" `Quick descriptive_basics;
        Alcotest.test_case "correlation" `Quick descriptive_correlation;
        Alcotest.test_case "histogram" `Quick histogram_counts;
      ] );
    ( "stats.gaussian",
      [
        Alcotest.test_case "log pdf" `Quick gaussian_log_pdf;
        Alcotest.test_case "fit" `Slow gaussian_fit;
      ] );
    ( "stats.naive_bayes",
      [
        Alcotest.test_case "model" `Quick nb_model;
        Alcotest.test_case "intervals" `Quick nb_partition_intervals;
        QCheck_alcotest.to_alcotest nb_posterior_monotone;
      ] );
  ]
