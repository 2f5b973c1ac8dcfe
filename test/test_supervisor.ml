(* Tests for the pluggable QA backend API (Anneal.Backend) and the
   fault-tolerant supervisor (Anneal.Supervisor): breaker state machine,
   retry/backoff determinism, deadline handling, the fault injector's
   RNG-isolation contract, and end-to-end degradation to pure CDCL. *)

module SI = Anneal.Sparse_ising
module Backend = Anneal.Backend
module Sup = Anneal.Supervisor
module Timing = Anneal.Timing
module Job = Service.Job
module Batch = Service.Batch
module Telemetry = Service.Telemetry

let fcheck = Alcotest.(check (float 1e-9))

let small_ising () =
  let n = 6 in
  let h = Array.make n 0.5 in
  let couplings = List.init (n - 1) (fun i -> ((i, i + 1), -1.0)) in
  SI.build ~n ~h ~couplings ~offset:0.

(* a random spin glass, matching what the machine layer actually sends *)
let glass_ising r =
  let n = 20 + Stats.Rng.int r 20 in
  let h = Array.init n (fun _ -> Stats.Rng.gaussian r ~mu:0. ~sigma:1.) in
  let couplings =
    List.init (n - 1) (fun i -> ((i, i + 1), Stats.Rng.gaussian r ~mu:0. ~sigma:1.))
  in
  SI.build ~n ~h ~couplings ~offset:0.

let request ?(noise = Anneal.Noise.noise_free) ?(reads = 1) ?(domains = 1) ising =
  { Backend.ising; noise; reads; init = None; domains }

let ok_response (req : Backend.request) =
  let spins = Array.make req.Backend.ising.SI.n (-1) in
  {
    Backend.spins;
    energy = SI.energy req.Backend.ising spins;
    time_us = Backend.model_time_us req;
  }

(* a device scripted from a step list; [after] is what it does once the
   script is spent *)
let scripted ?(after = `Ok) script =
  let remaining = ref script in
  Backend.of_fn ~name:"scripted" (fun ?obs:_ _rng req ->
      let step =
        match !remaining with
        | [] -> after
        | s :: rest ->
            remaining := rest;
            s
      in
      match step with `Ok -> Ok (ok_response req) | `Fail f -> Error f)

(* ------------------------------------------------------------------ *)
(* supervisor state machine *)

let retry_exhaustion_returns_last_failure () =
  let backend = scripted ~after:(`Fail Backend.Readout_corrupt) [] in
  let policy = { Sup.timeout_us = infinity; retries = 2 } in
  let sup = Sup.create ~policy backend in
  match Sup.sample sup (Testutil.rng 1) (request (small_ising ())) with
  | Error Backend.Readout_corrupt ->
      let s = Sup.stats sup in
      Alcotest.(check int) "one call" 1 s.Sup.calls;
      Alcotest.(check int) "retries+1 attempts" 3 s.Sup.attempts;
      Alcotest.(check int) "all retries used" 2 s.Sup.retries;
      Alcotest.(check int) "every attempt failed" 3 s.Sup.failures;
      Alcotest.(check int) "no successes" 0 s.Sup.successes
  | Ok _ -> Alcotest.fail "a permanently failing device cannot succeed"
  | Error f -> Alcotest.failf "wrong failure: %s" (Backend.failure_label f)

let transient_failure_recovers_with_deterministic_backoff () =
  let run seed =
    let backend = scripted [ `Fail Backend.Unavailable; `Fail Backend.Chain_break_storm ] in
    let sup = Sup.create ~seed ~policy:{ Sup.timeout_us = infinity; retries = 2 } backend in
    match Sup.sample sup (Testutil.rng 3) (request (small_ising ())) with
    | Ok r -> (r, Sup.stats sup)
    | Error f -> Alcotest.failf "expected recovery, got %s" (Backend.failure_label f)
  in
  let r1, s1 = run 11 in
  let r2, _ = run 11 in
  let r3, _ = run 12 in
  let clean = Backend.model_time_us (request (small_ising ())) in
  Alcotest.(check int) "two retries" 2 s1.Sup.retries;
  Alcotest.(check int) "one success" 1 s1.Sup.successes;
  Alcotest.(check bool) "failed attempts and backoff are charged" true
    (r1.Backend.time_us > clean +. 1e-9);
  fcheck "same jitter seed, same modelled time" r1.Backend.time_us r2.Backend.time_us;
  Alcotest.(check bool) "different jitter seed, different wait" true
    (abs_float (r3.Backend.time_us -. r1.Backend.time_us) > 1e-9)

let deadline_mid_read_times_out () =
  (* the scripted device always answers, but its modelled 138 us exceeds the
     50 us budget: the read is discarded as a timeout, never returned *)
  let backend = scripted [] in
  let policy = { Sup.timeout_us = 50.0; retries = 1 } in
  let sup = Sup.create ~policy backend in
  match Sup.sample sup (Testutil.rng 1) (request (small_ising ())) with
  | Error Backend.Timeout ->
      let s = Sup.stats sup in
      Alcotest.(check int) "both attempts made" 2 s.Sup.attempts;
      Alcotest.(check int) "both charged as failures" 2 s.Sup.failures
  | Ok _ -> Alcotest.fail "a read past the deadline must not be returned"
  | Error f -> Alcotest.failf "wrong failure: %s" (Backend.failure_label f)

(* the breaker's fixed settings: it opens after 5 consecutive failures,
   fast-fails the next 7 calls, admits the 8th as the probe, and 1 good
   probe closes it *)
let failures_to_open = 5
let cooldown_calls = 8

let breaker_lifecycle () =
  let failing = ref true in
  let backend =
    Backend.of_fn ~name:"flaky" (fun ?obs:_ _rng req ->
        if !failing then Error Backend.Unavailable else Ok (ok_response req))
  in
  let sup = Sup.create ~policy:{ Sup.timeout_us = infinity; retries = 0 } backend in
  let req = request (small_ising ()) in
  let call () = Sup.sample sup (Testutil.rng 1) req in
  for i = 1 to failures_to_open do
    (match call () with
    | Error Backend.Unavailable -> ()
    | _ -> Alcotest.failf "failure %d expected" i);
    if i < failures_to_open then
      Alcotest.(check bool) (Printf.sprintf "still closed after %d failures" i) true
        (Sup.state sup = `Closed)
  done;
  Alcotest.(check bool) "threshold reached: open" true (Sup.state sup = `Open);
  (* while open the device is not touched: the calls fast-fail *)
  for _ = 1 to cooldown_calls - 1 do
    match call () with
    | Error Backend.Breaker_open -> ()
    | _ -> Alcotest.fail "open breaker must fast-fail"
  done;
  Alcotest.(check int) "fast-fails counted" (cooldown_calls - 1) (Sup.stats sup).Sup.fast_fails;
  Alcotest.(check int) "fast-fails never reached the device" failures_to_open
    (Sup.stats sup).Sup.attempts;
  (* cooldown spent: next call is admitted as the half-open probe *)
  failing := false;
  (match call () with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "probe should succeed, got %s" (Backend.failure_label f));
  Alcotest.(check bool) "good probe closes the breaker" true (Sup.state sup = `Closed);
  Alcotest.(check int) "closed -> open -> half_open -> closed" 3 (Sup.stats sup).Sup.transitions;
  (* and a closed breaker admits calls again *)
  match call () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "closed breaker must admit calls"

(* open the breaker of [sup] over an always-failing device, then run the
   cooldown out up to (not including) the probe *)
let open_and_cool_down sup req =
  for _ = 1 to failures_to_open + cooldown_calls - 1 do
    ignore (Sup.sample sup (Testutil.rng 1) req)
  done

let probe_failure_reopens_breaker () =
  let backend = scripted ~after:(`Fail Backend.Unavailable) [] in
  let sup = Sup.create ~policy:{ Sup.timeout_us = infinity; retries = 0 } backend in
  let req = request (small_ising ()) in
  open_and_cool_down sup req;
  Alcotest.(check bool) "open after the threshold" true (Sup.state sup = `Open);
  (* cooldown spent: this very call is the probe — and it fails *)
  ignore (Sup.sample sup (Testutil.rng 1) req);
  Alcotest.(check bool) "failed probe reopens" true (Sup.state sup = `Open);
  Alcotest.(check int) "closed -> open -> half_open -> open" 3 (Sup.stats sup).Sup.transitions

let supervisor_metrics_exported () =
  let obs = Obs.Ctx.create () in
  let backend = scripted ~after:(`Fail Backend.Unavailable) [] in
  let sup = Sup.create ~obs ~policy:{ Sup.timeout_us = infinity; retries = 0 } backend in
  let req = request (small_ising ()) in
  open_and_cool_down sup req;
  ignore (Sup.sample sup (Testutil.rng 1) req);
  let snap = Obs.Ctx.snapshot obs in
  let counter name =
    match List.assoc_opt name snap with
    | Some (Obs.Ctx.Counter { count }) -> int_of_float count
    | _ -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check int) "calls counted" (failures_to_open + cooldown_calls)
    (counter "qa_backend_calls_total");
  Alcotest.(check int) "device failures labelled by reason" (failures_to_open + 1)
    (counter "qa_failures_total{reason=\"unavailable\"}");
  Alcotest.(check int) "fast-fails labelled by reason" (cooldown_calls - 1)
    (counter "qa_failures_total{reason=\"breaker_open\"}");
  Alcotest.(check int) "transitions to open" 2
    (counter "qa_breaker_transitions_total{to=\"open\"}");
  Alcotest.(check int) "transitions to half_open" 1
    (counter "qa_breaker_transitions_total{to=\"half_open\"}");
  (match List.assoc_opt "qa_breaker_state" snap with
  | Some (Obs.Ctx.Gauge { value }) -> fcheck "gauge shows open" 1.0 value
  | _ -> Alcotest.fail "missing qa_breaker_state gauge");
  Obs.Ctx.close obs

(* ------------------------------------------------------------------ *)
(* fault injector & read fan-out equivalence (the Noise draw-order
   contract: a zero-rate injector and a zero-rate noise model draw nothing,
   so wrapping is bit-identical; reads are stream-split, so the domain
   count never changes the spins) *)

let zero_rate_wrapper_and_serial_reads_agree () =
  let ising = glass_ising (Testutil.rng 67) in
  let run ?(domains = 2) backend seed =
    let req = request ~noise:Anneal.Noise.default_2000q ~reads:3 ~domains ising in
    match Backend.sample backend (Testutil.rng seed) req with
    | Ok r -> r.Backend.spins
    | Error f -> Alcotest.failf "simulator failed: %s" (Backend.failure_label f)
  in
  let base = run Backend.best_of 73 in
  Alcotest.(check (array int)) "zero-rate fault wrapper is bit-identical" base
    (run (Backend.with_faults Backend.default_faults Backend.best_of) 73);
  Alcotest.(check (array int)) "serial reads agree with 2-domain reads" base
    (run ~domains:1 Backend.best_of 73)

let failed_attempts_consume_no_caller_rng () =
  (* the injector draws from its own stream, so a supervised call over a
     faulty device must return exactly what the clean device returns for
     the same caller seed — retries are exact reruns *)
  let ising = glass_ising (Testutil.rng 61) in
  let req = request ~reads:2 ising in
  let faulty =
    Backend.with_faults
      { Backend.fail_rate = 0.5; fault_seed = 5 }
      Backend.best_of
  in
  let policy = { Sup.timeout_us = infinity; retries = 20 } in
  let sup = Sup.create ~policy faulty in
  for i = 0 to 9 do
    let seed = 71 + i in
    let clean =
      match Backend.sample Backend.best_of (Testutil.rng seed) req with
      | Ok r -> r
      | Error _ -> Alcotest.fail "clean simulator cannot fail"
    in
    match Sup.sample sup (Testutil.rng seed) req with
    | Ok r ->
        Alcotest.(check (array int))
          (Printf.sprintf "call %d: supervised spins equal clean spins" i)
          clean.Backend.spins r.Backend.spins
    | Error f -> Alcotest.failf "retries exhausted at call %d: %s" i (Backend.failure_label f)
  done;
  Alcotest.(check bool) "the injector actually fired" true ((Sup.stats sup).Sup.failures > 0)

(* ------------------------------------------------------------------ *)
(* sharing one supervisor across domains *)

(* run [f 0] and [f 1] on two domains; a raise in either fails the test *)
let on_two_domains f =
  let d = Domain.spawn (fun () -> f 1) in
  let r0 = f 0 in
  (r0, Domain.join d)

(* A supervisor is documented domain-safe, so the device call must not
   run under its lock: each call counts itself in and waits (at most 2 s)
   until both calls have entered the backend.  Under a serialising lock
   the first call gives up at the bound and fails, so the test fails
   rather than hangs. *)
let shared_supervisor_overlaps_device_calls () =
  let entered = Atomic.make 0 in
  let backend =
    Backend.of_fn ~name:"rendezvous" (fun ?obs:_ _rng req ->
        Atomic.incr entered;
        let deadline = Unix.gettimeofday () +. 2.0 in
        while Atomic.get entered < 2 && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done;
        (* the first call in sees the second arrive only if it is not
           holding the second out *)
        if Atomic.get entered >= 2 then Ok (ok_response req) else Error Backend.Unavailable)
  in
  let policy = { Sup.timeout_us = infinity; retries = 0 } in
  let sup = Sup.create ~policy backend in
  let req = request (small_ising ()) in
  let call i = Result.is_ok (Sup.sample sup (Testutil.rng (5 + i)) req) in
  let a, b = on_two_domains call in
  Alcotest.(check (pair bool bool)) "both device calls saw the other inside" (true, true) (a, b);
  Alcotest.(check int) "two successes counted" 2 (Sup.stats sup).Sup.successes

(* concurrent callers through a faulty device: the injector's private
   stream and the supervisor's counters stay consistent, nothing raises *)
let shared_supervisor_counts_concurrent_faults () =
  let faulty =
    Backend.with_faults
      { Backend.fail_rate = 0.3; fault_seed = 9 }
      Backend.best_of
  in
  let sup = Sup.create ~policy:{ Sup.timeout_us = infinity; retries = 1 } faulty in
  let req = request (glass_ising (Testutil.rng 83)) in
  let per_domain = 150 in
  let run i =
    let rng = Testutil.rng (89 + i) in
    let ok = ref 0 in
    for _ = 1 to per_domain do
      match Sup.sample sup rng req with Ok _ -> incr ok | Error _ -> ()
    done;
    !ok
  in
  let ok0, ok1 = on_two_domains run in
  let s = Sup.stats sup in
  Alcotest.(check int) "calls = submitted" (2 * per_domain) s.Sup.calls;
  Alcotest.(check int) "successes = Ok results observed" (ok0 + ok1) s.Sup.successes;
  Alcotest.(check bool) "the injector fired" true (s.Sup.failures > 0)

(* ------------------------------------------------------------------ *)
(* end-to-end degradation *)

let full_fault_hybrid_equals_classic () =
  let f = Workload.Uniform.uf (Testutil.rng 91) 30 in
  let faults = { Backend.fail_rate = 1.0; fault_seed = 3 } in
  let config =
    Hyqsat.Hybrid_solver.make_config
      ~backend:(Backend.simulator faults)
      ()
  in
  let hybrid = Hyqsat.Solve.run (Hyqsat.Solve.Hybrid config) f in
  let classic = Hyqsat.Solve.run (Hyqsat.Solve.Classic config.Hyqsat.Hybrid_solver.cdcl) f in
  Alcotest.(check int) "identical iteration count" classic.Hyqsat.Hybrid_solver.iterations
    hybrid.Hyqsat.Hybrid_solver.iterations;
  (match (hybrid.Hyqsat.Hybrid_solver.result, classic.Hyqsat.Hybrid_solver.result) with
  | Cdcl.Solver.Sat a, Cdcl.Solver.Sat b ->
      Alcotest.(check bool) "identical model" true (a = b);
      Alcotest.(check bool) "model satisfies the formula" true (Testutil.check_model f a)
  | Cdcl.Solver.Unsat, Cdcl.Solver.Unsat -> ()
  | _ -> Alcotest.fail "fully-degraded hybrid must answer exactly like classic");
  Alcotest.(check int) "no successful QA call" 0 hybrid.Hyqsat.Hybrid_solver.qa_calls;
  Alcotest.(check bool) "degradation recorded" true (hybrid.Hyqsat.Hybrid_solver.qa_degraded > 0);
  Alcotest.(check bool) "failures recorded" true (hybrid.Hyqsat.Hybrid_solver.qa_failures > 0);
  Alcotest.(check int) "classic reports zero degradation" 0
    classic.Hyqsat.Hybrid_solver.qa_degraded

let faulty_certified_batch_stays_sound () =
  let rng = Testutil.rng 97 in
  let faults = { Backend.fail_rate = 0.3; fault_seed = 5 } in
  let qa = { Job.default_qa with Job.faults } in
  let jobs =
    List.init 6 (fun i ->
        Job.make
          ~name:(Printf.sprintf "uf30-%d" i)
          ~certify:true ~qa
          ~seed:(1 + (211 * i))
          ~id:i (Workload.Uniform.uf rng 30))
  in
  let members = Batch.solo ~log_proof:true "hybrid" in
  let summary, results = Batch.run ~workers:2 ~members jobs in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        ("answer certified: " ^ r.Batch.record.Telemetry.job_name)
        true
        (r.Batch.record.Telemetry.outcome <> "unknown:cert-failed"))
    results;
  Alcotest.(check int) "faults never turn decidable jobs unknown" 0
    summary.Telemetry.unknown;
  let failures =
    List.fold_left (fun acc r -> acc + r.Batch.record.Telemetry.qa_failures) 0 results
  in
  Alcotest.(check bool) "the injector actually fired" true (failures > 0)

let suite =
  [
    ( "anneal.supervisor",
      [
        Alcotest.test_case "retry exhaustion" `Quick retry_exhaustion_returns_last_failure;
        Alcotest.test_case "transient recovery, deterministic backoff" `Quick
          transient_failure_recovers_with_deterministic_backoff;
        Alcotest.test_case "deadline mid-read" `Quick deadline_mid_read_times_out;
        Alcotest.test_case "breaker lifecycle" `Quick breaker_lifecycle;
        Alcotest.test_case "failed probe reopens" `Quick probe_failure_reopens_breaker;
        Alcotest.test_case "metrics exported" `Quick supervisor_metrics_exported;
        Alcotest.test_case "shared: device calls overlap" `Quick
          shared_supervisor_overlaps_device_calls;
        Alcotest.test_case "shared: concurrent faults counted" `Quick
          shared_supervisor_counts_concurrent_faults;
      ] );
    ( "anneal.backend",
      [
        Alcotest.test_case "zero-rate wrapper & serial reads agree" `Quick
          zero_rate_wrapper_and_serial_reads_agree;
        Alcotest.test_case "failures consume no caller RNG" `Quick
          failed_attempts_consume_no_caller_rng;
      ] );
    ( "anneal.degradation",
      [
        Alcotest.test_case "100% faults = classic" `Quick full_fault_hybrid_equals_classic;
        Alcotest.test_case "30% faults, certified batch" `Quick faulty_certified_batch_stays_sound;
      ] );
  ]
