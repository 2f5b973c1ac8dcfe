(* Tests for the [stats] library. *)

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
  Alcotest.(check bool) "mean close" true (Float.abs (Stats.Descriptive.mean xs -. 3.0) < 0.1);
  Alcotest.(check bool) "std close" true (Float.abs (Stats.Descriptive.std xs -. 2.0) < 0.1)

let descriptive_basics () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.Descriptive.mean xs);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Stats.Descriptive.percentile xs 50.);
  Alcotest.(check (float 1e-9)) "variance" 2.0 (Stats.Descriptive.variance xs);
  Alcotest.(check (float 1e-6)) "geomean of powers" 4.0
    (Stats.Descriptive.geomean [| 2.; 8. |]);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.Descriptive.percentile xs 0.);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.Descriptive.percentile xs 100.);
  Alcotest.(check (float 1e-9)) "p25" 2.0 (Stats.Descriptive.percentile xs 25.)

let descriptive_correlation () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = Array.map (fun x -> (2. *. x) +. 1.) xs in
  Alcotest.(check (float 1e-9)) "perfect positive" 1.0 (Stats.Descriptive.correlation xs ys);
  let zs = Array.map (fun x -> -.x) xs in
  Alcotest.(check (float 1e-9)) "perfect negative" (-1.0) (Stats.Descriptive.correlation xs zs)

let histogram_counts () =
  let xs = [| 0.; 0.5; 1.0; 1.5; 2.0; 2.5; 3.0; 3.5 |] in
  let h = Stats.Descriptive.histogram ~bins:4 xs in
  Alcotest.(check int) "total preserved" 8 (Array.fold_left ( + ) 0 h.Stats.Descriptive.counts);
  Alcotest.(check int) "bins" 4 (Array.length h.Stats.Descriptive.counts)

let gaussian_log_pdf () =
  let g = { Stats.Gaussian.mu = 0.; sigma = 1. } in
  Alcotest.(check (float 1e-4)) "pdf at 0" 0.39894 (exp (Stats.Gaussian.log_pdf g 0.));
  Alcotest.(check (float 1e-4)) "pdf at 1.96" 0.05844 (exp (Stats.Gaussian.log_pdf g 1.96))

let gaussian_fit () =
  let r = Stats.Rng.create ~seed:9 in
  let xs = Array.init 20000 (fun _ -> Stats.Rng.gaussian r ~mu:(-1.5) ~sigma:0.7) in
  let g = Stats.Gaussian.fit xs in
  Alcotest.(check bool) "mu" true (Float.abs (g.Stats.Gaussian.mu +. 1.5) < 0.05);
  Alcotest.(check bool) "sigma" true (Float.abs (g.Stats.Gaussian.sigma -. 0.7) < 0.05)

let nb_model () =
  let r = Stats.Rng.create ~seed:10 in
  let sat = Array.init 2000 (fun _ -> Stats.Rng.gaussian r ~mu:2.0 ~sigma:1.0) in
  let unsat = Array.init 2000 (fun _ -> Stats.Rng.gaussian r ~mu:10.0 ~sigma:2.0) in
  let m = Stats.Naive_bayes.fit ~sat ~unsat in
  Alcotest.(check bool) "low energy -> sat" true (Stats.Naive_bayes.predict m 1.0 = `Sat);
  Alcotest.(check bool) "high energy -> unsat" true (Stats.Naive_bayes.predict m 12.0 = `Unsat);
  let acc = Stats.Naive_bayes.accuracy m ~sat ~unsat in
  Alcotest.(check bool) "accuracy high" true (acc > 0.95);
  let p = Stats.Naive_bayes.partition m in
  Alcotest.(check bool) "sat cut below unsat cut" true
    (p.Stats.Naive_bayes.sat_cut <= p.Stats.Naive_bayes.unsat_cut);
  Alcotest.(check bool) "posterior at sat_cut ~confidence" true
    (Stats.Naive_bayes.posterior_sat m p.Stats.Naive_bayes.sat_cut >= 0.88)

let nb_classify_intervals () =
  let m =
    Stats.Naive_bayes.fit
      ~sat:[| 1.0; 2.0; 3.0; 2.5; 1.5 |]
      ~unsat:[| 9.0; 10.0; 11.0; 10.5; 9.5 |]
  in
  let p = Stats.Naive_bayes.partition m in
  Alcotest.(check bool) "zero energy" true
    Stats.Naive_bayes.(classify p 0.0 = Satisfiable);
  Alcotest.(check bool) "far energy" true
    Stats.Naive_bayes.(classify p 50.0 = Near_unsatisfiable);
  Alcotest.(check bool) "small energy" true
    Stats.Naive_bayes.(classify p 1.0 = Near_satisfiable)

let nb_posterior_monotone =
  QCheck.Test.make ~name:"posterior decreases with energy between class means" ~count:50
    QCheck.(pair (float_range 0. 3.) (float_range 0. 3.))
    (fun (a, b) ->
      let m =
        Stats.Naive_bayes.fit
          ~sat:[| a; a +. 1.; a +. 2. |]
          ~unsat:[| b +. 10.; b +. 11.; b +. 12. |]
      in
      let mu_s = m.Stats.Naive_bayes.sat.Stats.Gaussian.mu in
      let mu_u = m.Stats.Naive_bayes.unsat.Stats.Gaussian.mu in
      let e1 = mu_s +. (0.25 *. (mu_u -. mu_s)) in
      let e2 = mu_s +. (0.75 *. (mu_u -. mu_s)) in
      Stats.Naive_bayes.posterior_sat m e1 >= Stats.Naive_bayes.posterior_sat m e2)

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
        Alcotest.test_case "intervals" `Quick nb_classify_intervals;
        QCheck_alcotest.to_alcotest nb_posterior_monotone;
      ] );
  ]
