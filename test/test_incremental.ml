(* Incremental & assumption-based solving: differential fuzz against fresh
   monolithic solves, clause-retention determinism, warm-started services. *)

module Solver = Cdcl.Solver
module Portfolio = Service.Portfolio
module Batch = Service.Batch
module Job = Service.Job
module Telemetry = Service.Telemetry
module Protocol = Server.Protocol
module Dispatch = Server.Dispatch

(* ------------------------------------------------------------------ *)
(* helpers *)

let random_assumptions r ~n ~k =
  let vars = Stats.Rng.sample_without_replacement r (min k n) n in
  List.map (fun v -> Sat.Lit.make v (Stats.Rng.bool r)) vars

(* a fresh solver's verdict on [f] with [assumptions] — the monolithic
   reference every incremental answer is checked against *)
let fresh_verdict ?(config = Cdcl.Config.minisat_like) f assumptions =
  Solver.solve_with_assumptions (Solver.create ~config f) assumptions

let lit_satisfied model l =
  let v = Sat.Lit.var l in
  v < Array.length model && (if Sat.Lit.is_pos l then model.(v) else not model.(v))

let assumptions_hold model assumptions = List.for_all (lit_satisfied model) assumptions

let label = function
  | `Sat _ -> "sat"
  | `Unsat -> "unsat"
  | `Unsat_assumptions -> "unsat-assumptions"
  | `Unknown -> "unknown"

(* ------------------------------------------------------------------ *)
(* differential fuzz: one long-lived solver answering a stream of
   assumption queries must agree with a fresh solver per query *)

let fuzz_incremental_agrees_with_fresh () =
  let r = Testutil.rng 901 in
  for instance = 0 to 39 do
    let n = 5 + Stats.Rng.int r 8 in
    let m = 2 + Stats.Rng.int r (4 * n) in
    let f = Testutil.random_cnf r ~n ~m ~k:(min 3 n) in
    let inc = Solver.create f in
    for round = 0 to 3 do
      let assumptions =
        (* rounds 0..2 are random; round 3 is deliberately contradictory *)
        if round = 3 then
          let v = Stats.Rng.int r n in
          [ Sat.Lit.make v true; Sat.Lit.make v false ]
        else random_assumptions r ~n ~k:(1 + Stats.Rng.int r 3)
      in
      let got = Solver.solve_with_assumptions inc assumptions in
      let want = fresh_verdict f assumptions in
      let ctx = Printf.sprintf "instance %d round %d" instance round in
      (* [`Unsat] vs [`Unsat_assumptions] may differ between the two
         solvers (one that has learnt more can prove formula-level unsat
         where a fresh one only refutes the assumptions); satisfiability
         under the assumptions must agree, and each claim is certified
         below on its own *)
      let satness = function
        | `Sat _ -> "sat"
        | `Unsat | `Unsat_assumptions -> "unsat-under-assumptions"
        | `Unknown -> "unknown"
      in
      Alcotest.(check string) (ctx ^ ": verdicts agree") (satness want) (satness got);
      (match got with
      | `Sat model ->
          Alcotest.(check bool) (ctx ^ ": model satisfies formula") true
            (Testutil.check_model f model);
          Alcotest.(check bool) (ctx ^ ": model satisfies assumptions") true
            (assumptions_hold model assumptions)
      | `Unsat ->
          (* formula-level unsat: a fresh assumption-free solve concurs *)
          Alcotest.(check string) (ctx ^ ": fresh assumption-free solve")
            "unsat"
            (Sat.Answer.label (Solver.solve (Solver.create f)))
      | `Unsat_assumptions ->
          let core = Solver.unsat_core inc in
          Alcotest.(check bool) (ctx ^ ": core is non-empty") true (core <> []);
          Alcotest.(check bool) (ctx ^ ": core is a subset of the assumptions")
            true
            (List.for_all (fun l -> List.mem l assumptions) core);
          (* re-solve fresh with the core forced as unit clauses: UNSAT *)
          let forced =
            Sat.Cnf.make ~num_vars:n
              (List.map (fun l -> Sat.Clause.make [ l ]) core
              @ List.of_seq
                  (Seq.init (Sat.Cnf.num_clauses f) (fun i -> Sat.Cnf.clause f i)))
          in
          Alcotest.(check string) (ctx ^ ": core forced fresh is unsat") "unsat"
            (Sat.Answer.label (Solver.solve (Solver.create forced)))
      | `Unknown -> Alcotest.fail (ctx ^ ": unbudgeted solve returned unknown"));
      (* the stream never poisons assumption-free solving *)
      if round = 3 then
        let plain = Solver.solve inc in
        let ref_plain = Solver.solve (Solver.create f) in
        Alcotest.(check string) (ctx ^ ": plain solve unaffected by assumptions")
          (Sat.Answer.label ref_plain) (Sat.Answer.label plain)
    done
  done

(* growing the formula between solves agrees with solving the final
   formula monolithically (and with each prefix monolithically) *)
let fuzz_grow_between_solves () =
  let r = Testutil.rng 902 in
  for instance = 0 to 19 do
    let n = 4 + Stats.Rng.int r 6 in
    let m = 4 + Stats.Rng.int r (4 * n) in
    let f = Testutil.random_cnf r ~n ~m ~k:(min 3 n) in
    let clauses = List.of_seq (Seq.init m (fun i -> Sat.Cnf.clause f i)) in
    (* start from an empty solver: exercises variable growth from 0 *)
    let inc = Solver.create (Sat.Cnf.make ~num_vars:0 []) in
    let added = ref 0 in
    List.iteri
      (fun i c ->
        Solver.add_clause inc (Sat.Clause.lits c);
        incr added;
        if i = m / 2 || i = m - 1 then begin
          let prefix = Sat.Cnf.make ~num_vars:n (List.filteri (fun j _ -> j < !added) clauses) in
          let got = Solver.solve inc in
          let want = Solver.solve (Solver.create prefix) in
          Alcotest.(check string)
            (Printf.sprintf "instance %d after %d clauses" instance !added)
            (Sat.Answer.label want) (Sat.Answer.label got);
          match got with
          | Sat model ->
              Alcotest.(check bool) "prefix model certifies" true
                (Testutil.check_model prefix model)
          | _ -> ()
        end)
      clauses
  done

(* ------------------------------------------------------------------ *)
(* determinism: the same call sequence on two identical solvers yields
   identical answers and identical stats, solve after solve *)

let clause_retention_deterministic () =
  let r = Testutil.rng 903 in
  let f = Testutil.random_cnf r ~n:12 ~m:44 ~k:3 in
  let queries =
    [
      random_assumptions r ~n:12 ~k:2;
      [];
      random_assumptions r ~n:12 ~k:3;
      random_assumptions r ~n:12 ~k:1;
    ]
  in
  let run () =
    let s = Solver.create f in
    let answers = List.map (fun a -> label (Solver.solve_with_assumptions s a)) queries in
    (answers, Solver.stats s)
  in
  let a1, st1 = run () in
  let a2, st2 = run () in
  List.iter2 (fun x y -> Alcotest.(check string) "answers identical" x y) a1 a2;
  Alcotest.(check bool) "stats identical across runs" true (st1 = st2);
  (* and the later solves really did retain work: the second identical
     query costs no extra conflicts *)
  let s = Solver.create f in
  (match Solver.solve s with Sat _ | Unsat -> () | Unknown _ -> Alcotest.fail "undecided");
  let c1 = (Solver.stats s).Solver.conflicts in
  (match Solver.solve s with Sat _ | Unsat -> () | Unknown _ -> Alcotest.fail "undecided");
  let c2 = (Solver.stats s).Solver.conflicts in
  Alcotest.(check int) "cached re-solve adds no conflicts" c1 c2

(* re-entry after Unknown: each call gets a fresh budget and the chunked
   search still terminates with the monolithic answer *)
let budget_chunks_reach_answer () =
  let r = Testutil.rng 904 in
  for instance = 0 to 9 do
    let f = Testutil.random_cnf r ~n:14 ~m:58 ~k:3 in
    let want = Sat.Answer.label (Solver.solve (Solver.create f)) in
    let s = Solver.create f in
    let rec drive fuel =
      if fuel = 0 then Alcotest.fail "budgeted solve made no progress";
      match Solver.solve ~max_conflicts:2 s with
      | Unknown _ -> drive (fuel - 1)
      | answer -> answer
    in
    let got = drive 10_000 in
    Alcotest.(check string)
      (Printf.sprintf "instance %d: chunked = monolithic" instance)
      want (Sat.Answer.label got)
  done

(* ------------------------------------------------------------------ *)
(* learnt-clause export/import *)

let export_import_preserves_answers () =
  let r = Testutil.rng 905 in
  for instance = 0 to 9 do
    let f = Testutil.random_cnf r ~n:12 ~m:50 ~k:3 in
    let donor = Solver.create f in
    let want = Sat.Answer.label (Solver.solve donor) in
    let exported = Solver.export_learnts donor in
    let recipient = Solver.create f in
    let installed = Solver.import_clauses recipient exported in
    Alcotest.(check bool)
      (Printf.sprintf "instance %d: installs at most what was exported" instance)
      true
      (installed >= 0 && installed <= List.length exported);
    Alcotest.(check string) "warm answer = cold answer" want
      (Sat.Answer.label (Solver.solve recipient))
  done;
  (* a proof-logging recipient must refuse foreign clauses: they have no
     RUP derivation at that point in its log *)
  let f = Testutil.random_cnf (Testutil.rng 906) ~n:10 ~m:42 ~k:3 in
  let donor = Solver.create f in
  ignore (Solver.solve donor);
  let logging = Solver.create ~config:(Cdcl.Config.with_proof_logging Cdcl.Config.minisat_like) f in
  Alcotest.(check int) "proof-logging import installs nothing" 0
    (Solver.import_clauses logging (Solver.export_learnts donor));
  match Solver.solve logging with
  | Unsat ->
      let proof = Option.get (Solver.proof logging) in
      Alcotest.(check bool) "proof still checks" true
        (match Sat.Drat.check f proof with Ok () -> true | Error _ -> false)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* service layer: race learnt pooling and batch warm-start *)

let stats_with learnts =
  {
    Portfolio.result = Cdcl.Solver.Unsat;
    iterations = 1;
    qa_calls = 0;
    qa_failures = 0;
    qa_degraded = 0;
    strategy_uses = Array.make 4 0;
    reused_clauses = 0;
    learnts;
    proof = None;
  }

let member_with name learnts =
  { Portfolio.member = name; stats = stats_with learnts; time_s = 0.; cancelled = false; error = None }

let race_learnts_dedup_and_order () =
  let c1 = [| 0; 2 |] and c1' = [| 2; 0 |] and c2 = [| 5 |] and c3 = [| 1; 3; 4 |] in
  let w = member_with "winner" [ c1; c2 ] in
  let loser = member_with "loser" [ c1'; c3 ] in
  let report = { Portfolio.winner = Some w; members = [ loser; w ]; wall_time_s = 0. } in
  let pooled = Portfolio.race_learnts report in
  (* winner first, the loser's literal-permuted duplicate dropped *)
  Alcotest.(check int) "deduped count" 3 (List.length pooled);
  Alcotest.(check bool) "winner clauses lead" true
    (match pooled with a :: b :: _ -> a == c1 && b == c2 | _ -> false);
  Alcotest.(check bool) "loser novelty kept" true (List.memq c3 pooled);
  let capped = Portfolio.race_learnts ~max_clauses:1 report in
  Alcotest.(check bool) "cap keeps the winner's best" true (capped = [ c1 ])

let batch_warm_start_reuses_and_agrees () =
  let f = Workload.Uniform.uf (Testutil.rng 909) 30 in
  let jobs =
    List.init 3 (fun i ->
        (* same formula and seed on purpose: the stream a session submits *)
        Job.make ~name:(Printf.sprintf "warm-%d" i) ~seed:7 ~id:i f)
  in
  let members = Batch.solo "minisat" in
  let _, cold = Batch.run ~members jobs in
  let _, warm = Batch.run ~warm_start:true ~members jobs in
  List.iter2
    (fun (c : Batch.job_result) (w : Batch.job_result) ->
      Alcotest.(check string) "warm outcome = cold outcome"
        (Job.outcome_label c.Batch.outcome) (Job.outcome_label w.Batch.outcome))
    cold warm;
  let flags = List.map (fun r -> r.Batch.record.Telemetry.warm_start) warm in
  Alcotest.(check (list bool)) "first job cold, repeats warm" [ false; true; true ] flags;
  List.iter
    (fun (r : Batch.job_result) ->
      if r.Batch.record.Telemetry.warm_start then
        Alcotest.(check bool) "warm job reports reused clauses" true
          (r.Batch.record.Telemetry.reused_clauses > 0))
    warm;
  List.iter
    (fun (r : Batch.job_result) ->
      Alcotest.(check bool) "cold batch never warm-starts" false
        r.Batch.record.Telemetry.warm_start)
    cold

(* ------------------------------------------------------------------ *)
(* wire protocol + dispatcher sessions *)

let protocol_session_roundtrip () =
  let spec =
    Protocol.make_job_spec ~name:"s.cnf" ~session:"stream-1" ~id:3 "p cnf 1 1\n1 0\n"
  in
  (match Protocol.decode_client (Protocol.encode_client (Protocol.Submit spec)) with
  | Ok (Protocol.Submit s) ->
      Alcotest.(check (option string)) "session survives the wire" (Some "stream-1")
        s.Protocol.session
  | _ -> Alcotest.fail "submit did not round-trip");
  (* absent on the wire = one-shot: old submitters keep working *)
  let bare = Protocol.make_job_spec ~id:0 "p cnf 1 1\n1 0\n" in
  (match Protocol.decode_client (Protocol.encode_client (Protocol.Submit bare)) with
  | Ok (Protocol.Submit s) ->
      Alcotest.(check (option string)) "absent field reads as None" None s.Protocol.session
  | _ -> Alcotest.fail "bare submit did not round-trip")

let retire_all d =
  let rec go acc fuel =
    if fuel = 0 then Alcotest.fail "dispatch did not settle"
    else if Dispatch.idle d then List.rev acc
    else begin
      Thread.yield ();
      let batch = Dispatch.take_completions d in
      go (List.rev_append batch acc) (fuel - 1)
    end
  in
  go [] 10_000_000

let strip_timing (r : Telemetry.record) = { r with queue_wait_s = 0.; solve_time_s = 0. }

let session_first_instance_matches_oneshot () =
  let formula = Workload.Uniform.uf (Testutil.rng 910) 20 in
  let dimacs = Sat.Dimacs.to_string formula in
  let config = { Dispatch.default_config with Dispatch.workers = 1 } in
  let answer session =
    let d = Dispatch.create config in
    let wire = Protocol.make_job_spec ~name:"s.cnf" ~certify:true ~seed:99 ?session ~id:0 dimacs in
    (match Dispatch.submit d ~client:"t" ~conn:1 wire with
    | Dispatch.Accepted _ -> ()
    | _ -> Alcotest.fail "submit rejected");
    let cs = retire_all d in
    Dispatch.shutdown d;
    match cs with
    | [ c ] ->
        Json.to_string
          (Telemetry.json_of_record (strip_timing c.Dispatch.result.Batch.record))
    | _ -> Alcotest.fail "expected one completion"
  in
  Alcotest.(check string) "session first instance = one-shot bytes (timing zeroed)"
    (answer None) (answer (Some "warm"))

let dispatch_session_warms_repeats () =
  let formula = Workload.Uniform.uf (Testutil.rng 911) 20 in
  let dimacs = Sat.Dimacs.to_string formula in
  let d = Dispatch.create { Dispatch.default_config with Dispatch.workers = 1; per_client = 8 } in
  for i = 0 to 2 do
    match
      Dispatch.submit d ~client:"t" ~conn:1
        (Protocol.make_job_spec ~name:(Printf.sprintf "s%d.cnf" i) ~seed:99
           ~session:"stream" ~id:i dimacs)
    with
    | Dispatch.Accepted _ -> ()
    | _ -> Alcotest.fail "submit rejected"
  done;
  let cs = retire_all d in
  Dispatch.shutdown d;
  let by_id = List.sort (fun a b -> compare a.Dispatch.job_id b.Dispatch.job_id) cs in
  let outcomes =
    List.map (fun c -> c.Dispatch.result.Batch.record.Telemetry.outcome) by_id
  in
  (match outcomes with
  | [ a; b; c ] ->
      Alcotest.(check string) "same answer across the session" a b;
      Alcotest.(check string) "same answer across the session" a c
  | _ -> Alcotest.fail "expected three completions");
  let flags =
    List.map (fun c -> c.Dispatch.result.Batch.record.Telemetry.warm_start) by_id
  in
  Alcotest.(check (list bool)) "repeats warm-start" [ false; true; true ] flags

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "incremental.solver",
      [
        Alcotest.test_case "fuzz: incremental = fresh" `Quick fuzz_incremental_agrees_with_fresh;
        Alcotest.test_case "fuzz: grow between solves" `Quick fuzz_grow_between_solves;
        Alcotest.test_case "retention determinism" `Quick clause_retention_deterministic;
        Alcotest.test_case "budget chunks terminate" `Quick budget_chunks_reach_answer;
        Alcotest.test_case "export/import learnts" `Quick export_import_preserves_answers;
      ] );
    ( "incremental.service",
      [
        Alcotest.test_case "race_learnts pooling" `Quick race_learnts_dedup_and_order;
        Alcotest.test_case "batch warm-start" `Quick batch_warm_start_reuses_and_agrees;
      ] );
    ( "incremental.wire",
      [
        Alcotest.test_case "session round-trips" `Quick protocol_session_roundtrip;
        Alcotest.test_case "first instance = one-shot" `Quick session_first_instance_matches_oneshot;
        Alcotest.test_case "repeats warm-start" `Quick dispatch_session_warms_repeats;
      ] );
  ]
