(* Certified answers end to end, on the path the CLI and the daemon run: a
   k-SAT instance becomes a certified job (Service.Job.make 3-SAT-converts
   it and keeps the original), a DRAT-logging hybrid member solves it, and
   Service.Batch.process checks the answer — the model against the ORIGINAL
   formula, the proof by reverse unit propagation.  Finishes with a mini
   differential-fuzzing campaign.

   Run with: dune exec examples/certified_demo.exe *)

let certified_solve doc =
  let spec = Service.Job.make ~certify:true ~id:0 (Sat.Dimacs.parse_string doc) in
  (match spec.Service.Job.original with
  | Some f ->
      Format.printf "converted: +%d auxiliary chain variables@."
        (Sat.Cnf.num_vars spec.Service.Job.formula - Sat.Cnf.num_vars f)
  | None -> Format.printf "already 3-SAT, no conversion@.");
  let r =
    Service.Batch.process
      ~members:(Service.Batch.solo ~log_proof:true "hybrid")
      ~obs:Obs.Ctx.null ~parent:Obs.Span.none spec ~enqueued_at:(Unix.gettimeofday ()) ()
  in
  (match r.Service.Batch.outcome with
  | Sat.Answer.Sat m ->
      Format.printf "answer: SATISFIABLE over the %d original variables@." (Array.length m)
  | Sat.Answer.Unsat -> Format.printf "answer: UNSATISFIABLE@."
  | Sat.Answer.Unknown _ as u -> Format.printf "answer: %s@." (Sat.Answer.label u));
  match r.Service.Batch.record.Service.Telemetry.verified with
  | "model" -> Format.printf "certified: model satisfies the original formula@."
  | "proof" -> Format.printf "certified: DRAT proof passes the RUP checker@."
  | "" -> Format.printf "nothing to certify@."
  | failed -> Format.printf "CERTIFICATION FAILED: %s@." failed

let () =
  (* a 5-SAT pigeon-ish instance: SAT, exercises the conversion path *)
  let sat_doc = "p cnf 5 3\n1 2 3 4 5 0\n-1 -2 -3 -4 0\n-5 1 0\n" in
  Format.printf "--- certified hybrid solve (k-SAT, satisfiable)@.";
  certified_solve sat_doc;

  (* all sign combinations over 4 variables: UNSAT, also k-SAT *)
  let clauses =
    List.init 16 (fun bits ->
        String.concat " "
          (List.init 4 (fun v ->
               string_of_int (if bits land (1 lsl v) = 0 then v + 1 else -(v + 1)))
          @ [ "0" ]))
  in
  let unsat_doc = "p cnf 4 16\n" ^ String.concat "\n" clauses ^ "\n" in
  Format.printf "@.--- certified hybrid solve (k-SAT, unsatisfiable)@.";
  certified_solve unsat_doc;

  Format.printf "@.--- differential fuzzing (hybrid vs minisat vs brute force)@.";
  let config = { Oracle.Fuzz.default_config with Oracle.Fuzz.instances = 25 } in
  let outcome = Oracle.Fuzz.run config in
  Format.printf "ran %d random instances, %d disagreements@." outcome.Oracle.Fuzz.ran
    (List.length outcome.Oracle.Fuzz.failures);
  List.iter
    (fun f -> Format.printf "@.%s@." (Oracle.Fuzz.reproducer f))
    outcome.Oracle.Fuzz.failures
