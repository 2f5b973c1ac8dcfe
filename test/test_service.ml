(* Tests for the batch/portfolio service layer: pool ordering, scheduling
   determinism, deadlines, first-winner cancellation, telemetry JSON. *)

module Job = Service.Job
module Pool = Parallel.Pool
module Deadline = Service.Deadline
module Portfolio = Service.Portfolio
module Batch = Service.Batch
module Telemetry = Service.Telemetry

let planted_cnf seed n = Workload.Uniform.uf (Testutil.rng seed) n

(* a member that answers instantly (the designated race winner) *)
let instant_member model =
  {
    Portfolio.name = "instant";
    run =
      (fun ~obs:_ ~parent:_ ~should_stop:_ ~max_iterations:_ ~import:_ _f ->
        {
          Portfolio.result = Cdcl.Solver.Sat model;
          iterations = 1;
          qa_calls = 0;
          qa_failures = 0;
          qa_degraded = 0;
          strategy_uses = Array.make 4 0;
          reused_clauses = 0;
          learnts = [];
          proof = None;
        });
  }

(* a member that only stops when cancelled (bounded so a cancellation bug
   fails the test instead of hanging it) *)
let spin_member () =
  {
    Portfolio.name = "spin";
    run =
      (fun ~obs:_ ~parent:_ ~should_stop ~max_iterations:_ ~import:_ _f ->
        let spins = ref 0 in
        while (not (should_stop ())) && !spins < 2_000_000_000 do
          incr spins;
          if !spins land 1023 = 0 then Domain.cpu_relax ()
        done;
        {
          Portfolio.result = Cdcl.Solver.Unknown Sat.Answer.Budget;
          iterations = !spins;
          qa_calls = 0;
          qa_failures = 0;
          qa_degraded = 0;
          strategy_uses = Array.make 4 0;
          reused_clauses = 0;
          learnts = [];
          proof = None;
        });
  }

(* ------------------------------------------------------------------ *)

(* thunks report through their own side effects: here, each writes its
   result into its index of an array *)
let pool_preserves_order () =
  let p = Pool.create ~workers:2 in
  let results = Array.make 20 (-1) in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () -> Pool.run p (List.init 20 (fun i ~worker:_ -> results.(i) <- i * i)));
  Alcotest.(check (list int)) "squares in submission order"
    (List.init 20 (fun i -> i * i))
    (Array.to_list results)

(* the pool captures every thunk's exception and re-raises the first one in
   list order only once every thunk has finished; the slow thunk after the
   raising ones must have completed by the time [run] raises *)
let pool_captures_exceptions () =
  let p = Pool.create ~workers:1 in
  let finished = Atomic.make 0 in
  let thunk x ~worker:_ =
    (match x with
    | 1 ->
        (* let the later raise happen first: list order, not time, decides *)
        Unix.sleepf 0.02;
        failwith "first"
    | 2 -> Unix.sleepf 0.05
    | 3 -> failwith "second"
    | _ -> ());
    Atomic.incr finished
  in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      Alcotest.check_raises "first exception in list order" (Failure "first") (fun () ->
          Pool.run p (List.map thunk [ 0; 1; 2; 3; 4 ]));
      Alcotest.(check int) "every other thunk finished before the raise" 3
        (Atomic.get finished))

(* the persistent lifecycle: runs and fire-and-forget submits interleave
   on one pool; only shutdown ends it.  A submitted thunk reports its own
   completion (here: into a table, under a condition variable). *)
let pool_reusable_across_runs () =
  let m = Mutex.create () and finished = Condition.create () in
  let seen = Hashtbl.create 8 in
  let double x ~worker:_ =
    Mutex.protect m (fun () ->
        Hashtbl.replace seen x (2 * x);
        Condition.broadcast finished)
  in
  let doubled x = Mutex.protect m (fun () -> Hashtbl.find seen x) in
  let await keys =
    Mutex.protect m (fun () ->
        while not (List.for_all (Hashtbl.mem seen) keys) do
          Condition.wait finished m
        done)
  in
  let p = Pool.create ~workers:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      for round = 1 to 5 do
        let keys = List.init 10 (fun i -> (100 * round) + i) in
        Pool.run p (List.map double keys);
        List.iter (fun k -> Alcotest.(check int) "doubled" (2 * k) (doubled k)) keys
      done;
      for round = 1 to 3 do
        let keys = [ 1000 + (2 * round); 1001 + (2 * round) ] in
        List.iter (fun k -> Pool.submit p (double k)) keys;
        await keys;
        List.iter (fun k -> Alcotest.(check int) "submitted thunk ran" (2 * k) (doubled k)) keys;
        (* and a run still works between submits *)
        Pool.run p [ double round ];
        Alcotest.(check int) "run after submit" (2 * round) (doubled round)
      done)

(* the daemon submits once per job for its whole life: once a thunk has
   run, the pool must hold neither it, what it captured, nor its result *)
let pool_submit_retains_nothing () =
  let items = Weak.create 1 and results = Weak.create 1 in
  let ran = Atomic.make false in
  let p = Pool.create ~workers:1 in
  let[@inline never] submit_one () =
    let x = Bytes.make 4096 'x' in
    Weak.set items 0 (Some x);
    Pool.submit p (fun ~worker:_ ->
        Weak.set results 0 (Some (Bytes.cat x x));
        Atomic.set ran true)
  in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      submit_one ();
      let t0 = Unix.gettimeofday () in
      while (not (Atomic.get ran)) && Unix.gettimeofday () -. t0 < 10. do
        Domain.cpu_relax ()
      done;
      Alcotest.(check bool) "thunk ran" true (Atomic.get ran);
      (* the worker may still be recording completion: give it a moment *)
      let rec collected tries =
        Gc.full_major ();
        if not (Weak.check items 0 || Weak.check results 0) then true
        else if tries = 0 then false
        else begin
          Unix.sleepf 0.01;
          collected (tries - 1)
        end
      in
      Alcotest.(check bool) "completed thunk and result collected" true (collected 200))

(* a raised exception must not poison the pool: the next run on the same
   pool works *)
let pool_exception_does_not_poison () =
  let p = Pool.create ~workers:2 in
  let results = Array.make 3 0 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      Alcotest.check_raises "odd thunk raised" (Failure "odd 1") (fun () ->
          Pool.run p
            (List.init 4 (fun x ~worker:_ ->
                 if x land 1 = 1 then failwith (Printf.sprintf "odd %d" x))));
      Pool.run p (List.init 3 (fun i ~worker:_ -> results.(i) <- 2 * (i + 2)));
      Alcotest.(check (array int)) "pool not poisoned by earlier exception" [| 4; 6; 8 |]
        results)

(* a 0-worker pool runs everything inline on the calling domain *)
let pool_zero_workers_runs_inline () =
  let self = (Domain.self () :> int) in
  let ran = ref [] in
  let record x ~worker = ran := ((Domain.self () :> int), worker, x) :: !ran in
  let p = Pool.create ~workers:0 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      Alcotest.(check int) "no domains spawned" 0 (Pool.workers p);
      (* with no worker to claim it, a submitted thunk runs before submit returns *)
      Pool.submit p (record 7);
      Alcotest.(check bool) "submit ran inline" true (!ran = [ (self, 0, 7) ]);
      ran := [];
      Pool.run p (List.map record [ 1; 2; 3 ]);
      Alcotest.(check (list int)) "every thunk ran" [ 1; 2; 3 ]
        (List.sort compare (List.map (fun (_, _, x) -> x) !ran));
      List.iter
        (fun (dom, worker, _) ->
          Alcotest.(check int) "ran on the calling domain" self dom;
          Alcotest.(check int) "helper worker id" (Pool.workers p) worker)
        !ran)

(* many tiny batches: the spawn-per-call cost this pool exists to remove
   would make this test take seconds; with a persistent pool it's instant *)
let pool_many_tiny_runs () =
  let p = Pool.create ~workers:3 in
  let out = ref 0 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      for i = 1 to 500 do
        Pool.run p [ (fun ~worker:_ -> out := i + 1) ];
        if !out <> i + 1 then Alcotest.fail "wrong tiny-batch result"
      done)

let pool_shutdown_closes () =
  let p = Pool.create ~workers:1 in
  let nop ~worker:_ = () in
  Pool.run p [ nop ];
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () -> Pool.submit p nop);
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool is shut down") (fun () -> Pool.run p [ nop ])

let batch_jobs seeds =
  List.mapi
    (fun i seed -> Job.make ~name:(Printf.sprintf "uf-%d" i) ~seed ~id:i (planted_cnf seed 30))
    seeds

let outcomes_of results =
  List.map (fun r -> r.Batch.record.Telemetry.outcome) results

let batch_is_worker_count_independent () =
  let seeds = List.init 8 (fun i -> 1000 + (17 * i)) in
  let members = Batch.solo "minisat" in
  let _, r1 = Batch.run ~workers:1 ~members (batch_jobs seeds) in
  let _, r3 = Batch.run ~workers:3 ~members (batch_jobs seeds) in
  Alcotest.(check (list string)) "same outcomes at any worker count" (outcomes_of r1)
    (outcomes_of r3);
  Alcotest.(check (list int)) "results in submission order"
    (List.init 8 Fun.id)
    (List.map (fun r -> r.Batch.record.Telemetry.job_id) r3);
  (* deterministic reruns: same seeds, same models *)
  let _, r1' = Batch.run ~workers:1 ~members (batch_jobs seeds) in
  List.iter2
    (fun a b ->
      match (a.Batch.outcome, b.Batch.outcome) with
      | Job.Sat ma, Job.Sat mb ->
          Alcotest.(check bool) "identical model" true (ma = mb);
          Alcotest.(check bool) "model satisfies formula" true
            (Testutil.check_model a.Batch.spec.Job.formula ma)
      | oa, ob ->
          Alcotest.(check string) "same outcome" (Job.outcome_label oa) (Job.outcome_label ob))
    r1 r1'

let deadline_expiry_returns_unknown () =
  (* the spin member never answers: only the deadline can end the race, so
     returning at all proves expiry is honoured (bounded fallback would take
     minutes, not the ~50 ms we allow) *)
  let f = planted_cnf 7 10 in
  let jobs = [ Job.make ~timeout_s:0.05 ~retries:3 ~id:0 f ] in
  let _, results = Batch.run ~members:(fun ~spec:_ ~seed:_ -> [ spin_member () ]) jobs in
  match results with
  | [ r ] ->
      Alcotest.(check string) "timeout outcome" "unknown:timeout"
        r.Batch.record.Telemetry.outcome;
      Alcotest.(check bool) "no winner recorded" true (r.Batch.record.Telemetry.winner = "");
      (* deadline expired before any retry could be useful: attempts stop *)
      Alcotest.(check bool) "bounded attempts" true (r.Batch.record.Telemetry.attempts <= 4)
  | _ -> Alcotest.fail "expected one result"

let budget_exhaustion_returns_unknown () =
  let f = planted_cnf 11 50 in
  let jobs = [ Job.make ~max_iterations:1 ~id:0 f ] in
  let members = Batch.solo "minisat" in
  let _, results = Batch.run ~members jobs in
  match results with
  | [ r ] ->
      Alcotest.(check string) "budget outcome" "unknown:budget" r.Batch.record.Telemetry.outcome
  | _ -> Alcotest.fail "expected one result"

let cancellation_stops_losers () =
  let f = Sat.Cnf.make ~num_vars:1 [ Sat.Clause.make [ Sat.Lit.make 0 true ] ] in
  let report = Portfolio.race [ instant_member [| true |]; spin_member () ] f in
  (match report.Portfolio.winner with
  | Some w -> Alcotest.(check string) "instant member wins" "instant" w.Portfolio.member
  | None -> Alcotest.fail "race had no winner");
  let spin =
    List.find (fun m -> m.Portfolio.member = "spin") report.Portfolio.members
  in
  Alcotest.(check bool) "loser observed the cancel flag" true spin.Portfolio.cancelled;
  Alcotest.(check bool) "loser stopped well before its bound" true
    (spin.Portfolio.stats.Portfolio.iterations < 2_000_000_000)

let cdcl_terminate_hook () =
  let f = planted_cnf 23 50 in
  let solver = Cdcl.Solver.create f in
  Cdcl.Solver.set_terminate solver (fun () -> true);
  (match Cdcl.Solver.solve solver with
  | Cdcl.Solver.Unknown _ -> ()
  | _ -> Alcotest.fail "terminate should force Unknown");
  (* the solver stays usable once the flag clears *)
  Cdcl.Solver.set_terminate solver (fun () -> false);
  match Cdcl.Solver.solve solver with
  | Cdcl.Solver.Sat m ->
      Alcotest.(check bool) "model valid after resume" true (Testutil.check_model f m)
  | _ -> Alcotest.fail "planted instance must be SAT"

let walksat_stops_on_cancel () =
  let f = planted_cnf 31 40 in
  let model, _ =
    Cdcl.Walksat.solve ~should_stop:(fun () -> true) (Testutil.rng 1) f
  in
  Alcotest.(check bool) "cancelled walksat is inconclusive" true (model = None)

let portfolio_race_finds_answer () =
  let f = planted_cnf 42 30 in
  let members = Portfolio.members_named ~grid:4 ~seed:5 [ "minisat"; "kissat"; "walksat" ] in
  let report = Portfolio.race members f in
  match report.Portfolio.winner with
  | Some w -> (
      match w.Portfolio.stats.Portfolio.result with
      | Cdcl.Solver.Sat m ->
          Alcotest.(check bool) "winning model satisfies" true (Testutil.check_model f m)
      | _ -> Alcotest.fail "planted instance must be SAT")
  | None -> Alcotest.fail "race found no answer"

(* a job whose members closure raises answers unknown:budget with the
   error, and its batch keeps every other job's answer *)
let batch_captures_raising_job () =
  let jobs = List.init 3 (fun i -> Job.make ~id:i (planted_cnf (60 + i) 20)) in
  let members ~spec ~seed =
    if spec.Job.id = 1 then failwith "members exploded"
    else Batch.solo "minisat" ~spec ~seed
  in
  let _, results = Batch.run ~workers:2 ~members jobs in
  Alcotest.(check int) "one result per job" 3 (List.length results);
  List.iter
    (fun r ->
      let label = r.Batch.record.Telemetry.outcome in
      if r.Batch.spec.Job.id = 1 then begin
        Alcotest.(check string) "raising job is unknown:budget" "unknown:budget" label;
        Alcotest.(check (option string)) "error carries the exception"
          (Some (Printexc.to_string (Failure "members exploded")))
          r.Batch.error
      end
      else begin
        Alcotest.(check string) "sibling answered" "sat" label;
        Alcotest.(check bool) "sibling has no error" true (r.Batch.error = None)
      end)
    results

(* a member that raises loses the race quietly, but a race nobody won
   reports the member's exception: the job answers unknown:budget with it
   in [error] instead of a silent unknown *)
let batch_reports_raising_member () =
  let raising =
    {
      Portfolio.name = "raising";
      run =
        (fun ~obs:_ ~parent:_ ~should_stop:_ ~max_iterations:_ ~import:_ _f ->
          invalid_arg "member exploded");
    }
  in
  let _, results =
    Batch.run ~members:(fun ~spec:_ ~seed:_ -> [ raising ]) [ Job.make ~id:0 (planted_cnf 61 20) ]
  in
  let r = List.hd results in
  Alcotest.(check string) "no answer" "unknown:budget" r.Batch.record.Telemetry.outcome;
  Alcotest.(check (option string)) "error carries the member's exception"
    (Some (Printexc.to_string (Invalid_argument "member exploded")))
    r.Batch.error

(* a race that is cancelled before it starts runs none of its members *)
let cancelled_race_enters_no_member () =
  let entries = Atomic.make 0 in
  let counting i =
    let inner = instant_member [| true |] in
    {
      Portfolio.name = Printf.sprintf "counted-%d" i;
      run =
        (fun ~obs ~parent ~should_stop ~max_iterations ~import f ->
          Atomic.incr entries;
          inner.Portfolio.run ~obs ~parent ~should_stop ~max_iterations ~import f);
    }
  in
  let f = Sat.Cnf.make ~num_vars:1 [ Sat.Clause.make [ Sat.Lit.make 0 true ] ] in
  let report = Portfolio.race ~should_stop:(fun () -> true) (List.init 5 counting) f in
  Alcotest.(check int) "no member entered" 0 (Atomic.get entries);
  Alcotest.(check int) "every member reported" 5 (List.length report.Portfolio.members);
  Alcotest.(check bool) "no winner" true (report.Portfolio.winner = None);
  List.iter
    (fun m -> Alcotest.(check bool) "reported cancelled" true m.Portfolio.cancelled)
    report.Portfolio.members

let telemetry_json_roundtrip () =
  let records =
    [
      {
        Telemetry.job_id = 0;
        job_name = "path/with \"quotes\"\tand\nnewlines\\";
        outcome = "sat";
        verified = "model";
        winner = "hybrid";
        attempts = 2;
        queue_wait_s = 1.5e-05;
        solve_time_s = 0.12345678901234567;
        iterations = 1234;
        qa_calls = 7;
        qa_failures = 2;
        degraded = 1;
        strategy_uses = [| 1; 0; 3; 2 |];
        warm_start = true;
        reused_clauses = 5;
        cost = -1;
        lower_bound = -1;
      };
      {
        Telemetry.job_id = 1;
        job_name = "uf50-01.cnf";
        outcome = "unknown:timeout";
        verified = "";
        winner = "";
        attempts = 1;
        queue_wait_s = 0.;
        solve_time_s = 3.25;
        iterations = 0;
        qa_calls = 0;
        qa_failures = 0;
        degraded = 0;
        strategy_uses = [| 0; 0; 0; 0 |];
        warm_start = false;
        reused_clauses = 0;
        cost = -1;
        lower_bound = -1;
      };
    ]
  in
  (* JSON has no NaN or infinity: they travel as null and read back as
     NaN, so the document stays parseable *)
  let records =
    records
    @ [
        { (List.nth records 1) with
          Telemetry.job_id = 2;
          queue_wait_s = Float.nan;
          solve_time_s = Float.infinity };
      ]
  in
  let summary =
    { (Telemetry.summarize ~workers:4 ~wall_time_s:3.3 records) with
      Telemetry.throughput_jps = Float.neg_infinity }
  in
  let doc = Telemetry.to_json_string summary records in
  (* what a reader should see: every non-finite float as NaN; [compare]
     (unlike [=]) treats NaN as equal to itself *)
  let nan_for_non_finite x = if Float.is_finite x then x else Float.nan in
  let expect_summary s =
    let f = nan_for_non_finite in
    { s with
      Telemetry.wall_time_s = f s.Telemetry.wall_time_s;
      total_solve_s = f s.total_solve_s;
      max_solve_s = f s.max_solve_s;
      mean_queue_wait_s = f s.mean_queue_wait_s;
      throughput_jps = f s.throughput_jps }
  in
  let expect_record r =
    { r with
      Telemetry.queue_wait_s = nan_for_non_finite r.Telemetry.queue_wait_s;
      solve_time_s = nan_for_non_finite r.solve_time_s }
  in
  match Telemetry.of_json_string doc with
  | Error msg -> Alcotest.fail ("JSON did not parse back: " ^ msg)
  | Ok (summary', records') ->
      Alcotest.(check bool) "summary round-trips" true
        (compare (expect_summary summary) summary' = 0);
      Alcotest.(check int) "record count" 3 (List.length records');
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "record round-trips" true (compare (expect_record a) b = 0))
        records records'

let telemetry_v5_optimisation_fields () =
  let r =
    {
      Telemetry.job_id = 7;
      job_name = "w.wcnf";
      outcome = "sat";
      verified = "optimal";
      winner = "maxsat-linear";
      attempts = 1;
      queue_wait_s = 0.;
      solve_time_s = 0.01;
      iterations = 3;
      qa_calls = 0;
      qa_failures = 0;
      degraded = 0;
      strategy_uses = [| 0; 0; 0; 0 |];
      warm_start = false;
      reused_clauses = 0;
      cost = 4;
      lower_bound = 4;
    }
  in
  let summary = Telemetry.summarize ~workers:1 ~wall_time_s:0.1 [ r ] in
  let doc = Telemetry.to_json_string summary [ r ] in
  (match Telemetry.of_json_string doc with
  | Ok (_, [ r' ]) ->
      Alcotest.(check int) "cost round-trips" 4 r'.Telemetry.cost;
      Alcotest.(check int) "lower_bound round-trips" 4 r'.Telemetry.lower_bound
  | Ok _ -> Alcotest.fail "expected one record"
  | Error e -> Alcotest.fail ("v5 document rejected: " ^ e));
  (* a v4 writer never emitted the fields: stripping them must read back as
     the decision-job sentinel, not a parse error *)
  let tail = {|,"cost":4,"lower_bound":4|} in
  let idx =
    let rec find i =
      if i + String.length tail > String.length doc then
        Alcotest.fail "optimisation fields not found in document"
      else if String.sub doc i (String.length tail) = tail then i
      else find (i + 1)
    in
    find 0
  in
  let v4 =
    String.sub doc 0 idx
    ^ String.sub doc
        (idx + String.length tail)
        (String.length doc - idx - String.length tail)
  in
  match Telemetry.of_json_string v4 with
  | Ok (_, [ r' ]) ->
      Alcotest.(check int) "absent cost defaults to -1" (-1) r'.Telemetry.cost;
      Alcotest.(check int) "absent lower_bound defaults to -1" (-1)
        r'.Telemetry.lower_bound
  | Ok _ -> Alcotest.fail "expected one record"
  | Error e -> Alcotest.fail ("v4-style document rejected: " ^ e)

let batch_optimisation_job () =
  (* hard: x0 ∨ x1; softs make the optimum cost 2 (x1 true, x2 false) *)
  let cl lits = Sat.Clause.make (List.map (fun (v, s) -> Sat.Lit.make v s) lits) in
  let w =
    Sat.Wcnf.make ~num_vars:3
      ~hard:[ cl [ (0, true); (1, true) ] ]
      ~soft:
        [
          (3, cl [ (0, false) ]);
          (2, cl [ (1, false); (2, true) ]);
          (4, cl [ (2, false) ]);
        ]
  in
  let jobs = [ Job.optimize ~certify:true ~seed:42 ~id:0 w ] in
  let _, results = Batch.run ~members:(Batch.solo "minisat") jobs in
  match results with
  | [ r ] ->
      (match r.Batch.outcome with
      | Job.Sat m ->
          Alcotest.(check bool) "model satisfies hard clauses" true
            (Sat.Wcnf.hard_satisfied w m);
          Alcotest.(check int) "model cost matches record" 2 (Sat.Wcnf.cost w m)
      | o -> Alcotest.fail ("expected Sat, got " ^ Job.outcome_label o));
      Alcotest.(check int) "optimum cost" 2 r.Batch.record.Telemetry.cost;
      Alcotest.(check int) "proved lower bound" 2 r.Batch.record.Telemetry.lower_bound;
      Alcotest.(check string) "certified optimal" "optimal"
        r.Batch.record.Telemetry.verified;
      Alcotest.(check bool) "winner labelled maxsat-*" true
        (String.length r.Batch.record.Telemetry.winner > 7
        && String.sub r.Batch.record.Telemetry.winner 0 7 = "maxsat-")
  | _ -> Alcotest.fail "expected one result"

let telemetry_schema_versioning () =
  let summary = Telemetry.summarize ~workers:1 ~wall_time_s:0.5 [] in
  let doc = Telemetry.to_json_string summary [] in
  (* new documents lead with the version field *)
  let header = "{\"schema_version\":5," in
  let hlen = String.length header in
  Alcotest.(check string) "version field first" header (String.sub doc 0 hlen);
  (match Telemetry.of_json_string doc with
  | Ok (s, r) ->
      Alcotest.(check bool) "current version parses" true (s = summary && r = [])
  | Error e -> Alcotest.fail ("current version rejected: " ^ e));
  (* version-1 documents predate the field entirely; they must keep parsing *)
  let v1 = "{" ^ String.sub doc hlen (String.length doc - hlen) in
  (match Telemetry.of_json_string v1 with
  | Ok (s, _) -> Alcotest.(check bool) "v1 document parses" true (s = summary)
  | Error e -> Alcotest.fail ("v1 document rejected: " ^ e));
  (* documents from a future writer are refused, not misread *)
  let future = "{\"schema_version\":99," ^ String.sub doc hlen (String.length doc - hlen) in
  match Telemetry.of_json_string future with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future schema_version must be rejected"

let telemetry_json_rejects_garbage () =
  (match Telemetry.of_json_string "{" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated JSON must not parse");
  match Telemetry.of_json_string "{\"summary\":{},\"jobs\":[]}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fields must not parse"

let deadline_basics () =
  Alcotest.(check bool) "none never expires" false (Deadline.expired Deadline.none);
  Alcotest.(check bool) "past deadline expired" true (Deadline.expired (Deadline.after (-1.)));
  Alcotest.(check bool) "future deadline pending" false (Deadline.expired (Deadline.after 10.))

let suite =
  [
    ( "service",
      [
        Alcotest.test_case "pool preserves submission order" `Quick pool_preserves_order;
        Alcotest.test_case "pool captures exceptions" `Quick pool_captures_exceptions;
        Alcotest.test_case "pool reusable across runs and submits" `Quick
          pool_reusable_across_runs;
        Alcotest.test_case "pool exception does not poison" `Quick
          pool_exception_does_not_poison;
        Alcotest.test_case "pool 0 workers runs inline" `Quick pool_zero_workers_runs_inline;
        Alcotest.test_case "pool many tiny runs" `Quick pool_many_tiny_runs;
        Alcotest.test_case "pool shutdown closes" `Quick pool_shutdown_closes;
        Alcotest.test_case "batch independent of worker count" `Quick
          batch_is_worker_count_independent;
        Alcotest.test_case "deadline expiry returns Unknown" `Quick
          deadline_expiry_returns_unknown;
        Alcotest.test_case "step budget returns Unknown" `Quick budget_exhaustion_returns_unknown;
        Alcotest.test_case "cancellation stops losers" `Quick cancellation_stops_losers;
        Alcotest.test_case "CDCL terminate hook" `Quick cdcl_terminate_hook;
        Alcotest.test_case "walksat stops on cancel" `Quick walksat_stops_on_cancel;
        Alcotest.test_case "portfolio race finds answer" `Quick portfolio_race_finds_answer;
        Alcotest.test_case "batch captures raising job" `Quick batch_captures_raising_job;
        Alcotest.test_case "batch reports raising member" `Quick batch_reports_raising_member;
        Alcotest.test_case "cancelled race enters no member" `Quick
          cancelled_race_enters_no_member;
        Alcotest.test_case "telemetry JSON round-trip" `Quick telemetry_json_roundtrip;
        Alcotest.test_case "telemetry v5 optimisation fields" `Quick
          telemetry_v5_optimisation_fields;
        Alcotest.test_case "batch optimisation job" `Quick batch_optimisation_job;
        Alcotest.test_case "telemetry schema versioning" `Quick telemetry_schema_versioning;
        Alcotest.test_case "telemetry JSON rejects garbage" `Quick
          telemetry_json_rejects_garbage;
        Alcotest.test_case "deadline basics" `Quick deadline_basics;
        Alcotest.test_case "pool submit retains nothing" `Quick pool_submit_retains_nothing;
      ] );
  ]
