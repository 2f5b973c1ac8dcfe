(* hyqsat: solve DIMACS CNF files with the hybrid QA+CDCL solver, the
   classical baselines, or a parallel portfolio race (`-s`, shared with
   `hyqsat serve`) — one file or a batch across a worker pool.  A `.wcnf`
   input (or --maxsat) switches that instance to the weighted-MaxSAT
   objective.

   Exit codes follow the SAT/MaxSAT competitions: 10 = SAT, 20 = UNSAT,
   30 = OPTIMUM FOUND, 0 = unknown.  For a batch the code is the one all
   instances agree on, else 0. *)

(* the one job_spec a file makes, for `hyqsat FILE` and `hyqsat submit
   FILE` alike: a .wcnf is WDIMACS, --maxsat makes a plain CNF weighted
   MaxSAT (every clause soft at weight 1), and file [i] gets seed + 101·i,
   so a daemon answer is reproducible against `hyqsat FILE --seed S` *)
let job_spec_of_file ~maxsat ~gap_limit ~certify ~timeout ~max_iterations ~retries ~seed i path =
  let format =
    if Filename.check_suffix path ".wcnf" then Some "wcnf"
    else if maxsat then Some "maxsat"
    else None
  in
  Server.Protocol.make_job_spec ~name:path ?format ~gap_limit ~certify ?timeout_s:timeout
    ~max_iterations ~retries ~seed:(seed + (101 * i)) ~id:i
    (In_channel.with_open_bin path In_channel.input_all)

(* Dispatch.job_of_spec names a bad field as the wire does: name the flag
   that set it instead *)
let name_flag reason =
  List.fold_left
    (fun r (field, flag) ->
      let n = String.length field in
      if String.starts_with ~prefix:(field ^ " ") r then flag ^ String.sub r n (String.length r - n)
      else r)
    reason
    [
      ("gap_limit", "--gap-limit");
      ("retries", "--retries");
      ("max_iterations", "--max-iterations");
      ("timeout_s", "--timeout");
    ]

(* Job.make 3-SAT-converts a non-3-SAT input and keeps it as [original]:
   say so on stderr *)
let note_conversion (spec : Service.Job.spec) =
  match spec.Service.Job.original with
  | None -> ()
  | Some f ->
      let g = spec.Service.Job.formula in
      Printf.eprintf
        "note: %s: converting %d-SAT input to 3-SAT (%d vars, %d clauses -> %d vars, %d clauses)\n%!"
        spec.Service.Job.name (Sat.Cnf.max_clause_size f) (Sat.Cnf.num_vars f)
        (Sat.Cnf.num_clauses f) (Sat.Cnf.num_vars g) (Sat.Cnf.num_clauses g)

let print_model model =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "v";
  Array.iteri
    (fun v b -> Buffer.add_string buf (Printf.sprintf " %d" (if b then v + 1 else -(v + 1))))
    model;
  Buffer.add_string buf " 0";
  print_endline (Buffer.contents buf)

let print_comment_block text =
  String.split_on_char '\n' text
  |> List.iter (fun line -> if line <> "" then print_endline ("c " ^ line))

(* optimisation records carry cost >= 0 (decision jobs write -1); an
   optimum is a closed gap *)
let classify_record (r : Service.Telemetry.record) =
  match r.Service.Telemetry.outcome with
  | "sat" when r.Service.Telemetry.cost >= 0 && r.Service.Telemetry.cost = r.Service.Telemetry.lower_bound ->
      `Optimum
  | "sat" -> `Sat
  | "unsat" -> `Unsat
  | _ -> `Unknown

let exit_code_of_records records =
  let xs = List.map classify_record records in
  let all p = List.for_all p xs in
  if xs = [] then 0
  else if all (fun c -> c = `Optimum) then 30
  else if all (fun c -> c = `Sat || c = `Optimum) then 10
  else if all (fun c -> c = `Unsat) then 20
  else 0

let print_certification (record : Service.Telemetry.record) =
  match record.Service.Telemetry.verified with
  | "" -> ()
  | "model" -> print_endline "c certified: model checked against the original formula"
  | "proof" -> print_endline "c certified: unsat DRAT proof checked (RUP, empty clause derived)"
  | "optimal" -> print_endline "c certified: optimality proven by an independent re-solve"
  | "cost" -> print_endline "c certified: model cost re-checked (optimality gap still open)"
  | "infeasible" -> print_endline "c certified: hard clauses re-proven unsatisfiable"
  | failed -> print_endline ("c CERTIFICATION FAILED — answer withheld: " ^ failed)

(* MaxSAT-evaluation style result lines from a telemetry record *)
let print_opt_status (record : Service.Telemetry.record) =
  Printf.printf "o %d\n" record.Service.Telemetry.cost;
  if record.Service.Telemetry.cost = record.Service.Telemetry.lower_bound then
    print_endline "s OPTIMUM FOUND"
  else begin
    Printf.printf "c optimality gap open: best %d, proven lower bound %d\n"
      record.Service.Telemetry.cost record.Service.Telemetry.lower_bound;
    print_endline "s SATISFIABLE"
  end

(* the one result printer, for `hyqsat` and `hyqsat submit` alike: an
   answer is a telemetry record and, for a Sat outcome, its model.  With
   more than one job each answer gets a header line and no `v` line *)
let print_answers ~json_out ~single summary answers =
  if json_out then
    print_endline (Service.Telemetry.to_json_string summary (List.map fst answers))
  else
    List.iter
      (fun ((record : Service.Telemetry.record), model) ->
        if not single then
          Printf.printf "c ---- %s (%s)\n" record.Service.Telemetry.job_name
            record.Service.Telemetry.outcome;
        print_certification record;
        match record.Service.Telemetry.outcome with
        | "sat" ->
            if record.Service.Telemetry.cost >= 0 then print_opt_status record
            else print_endline "s SATISFIABLE";
            if single then Option.iter print_model model
        | "unsat" -> print_endline "s UNSATISFIABLE"
        | _ -> print_endline "s UNKNOWN")
      answers

(* hybrid members build a Chimera grid of this many cells a side *)
let check_grid cmd grid =
  if grid < 1 then begin
    Printf.eprintf "%s: --grid must be >= 1\n" cmd;
    exit 2
  end

let write_proof path (r : Service.Batch.job_result) =
  match r.Service.Batch.race.Service.Portfolio.winner with
  | Some w -> (
      match w.Service.Portfolio.stats.Service.Portfolio.proof with
      | Some proof ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc (Sat.Drat.to_string proof));
          Printf.printf "c proof: %d steps written to %s\n" (List.length proof) path
      | None -> Printf.eprintf "warning: winner %s logged no proof\n%!" w.Service.Portfolio.member)
  | None -> ()

let main paths solver grid seed verbose jobs timeout retries max_iterations json_out certify
    proof_file trace_file metrics warm_start maxsat gap_limit qa_reads qa_domains qa_fault_rate
    qa_timeout_us qa_retries =
  if paths = [] then begin
    Printf.eprintf "hyqsat: no input files\n";
    exit 2
  end;
  if proof_file <> None && List.length paths > 1 then begin
    Printf.eprintf "hyqsat: --proof takes a single input file\n";
    exit 2
  end;
  if qa_fault_rate < 0. || qa_fault_rate > 1. then begin
    Printf.eprintf "hyqsat: --qa-fault-rate must be in [0,1]\n";
    exit 2
  end;
  if qa_reads < 1 then begin
    Printf.eprintf "hyqsat: --qa-reads must be >= 1\n";
    exit 2
  end;
  if qa_retries < 0 then begin
    Printf.eprintf "hyqsat: --qa-retries must be >= 0\n";
    exit 2
  end;
  check_grid "hyqsat" grid;
  let qa =
    {
      Service.Job.faults = { Anneal.Backend.fail_rate = qa_fault_rate; fault_seed = seed + 13 };
      supervision =
        {
          Anneal.Supervisor.timeout_us = Option.value ~default:infinity qa_timeout_us;
          retries = qa_retries;
        };
      reads = qa_reads;
      domains = qa_domains;
    }
  in
  let specs =
    List.mapi
      (fun i path ->
        let js =
          job_spec_of_file ~maxsat ~gap_limit ~certify ~timeout ~max_iterations ~retries ~seed i
            path
        in
        match Server.Dispatch.job_of_spec ~qa ~seed js with
        | Ok spec ->
            note_conversion spec;
            spec
        | Error reason ->
            (* malformed input or an out-of-range flag exits 2 *)
            Printf.eprintf "hyqsat: %s: %s\n" path (name_flag reason);
            exit 2)
      paths
  in
  let members = Service.Batch.resolve ~grid ~log_proof:(proof_file <> None) solver in
  let obs =
    if trace_file = None && not metrics then Obs.Ctx.null
    else begin
      let ctx = Obs.Ctx.create () in
      Option.iter (fun path -> Obs.Ctx.attach ctx (Obs.Export.file_jsonl path)) trace_file;
      ctx
    end
  in
  (* graceful drain on SIGINT/SIGTERM: stop accepting retries, cancel
     in-flight solves cooperatively, and still flush telemetry/trace —
     a second signal exits immediately *)
  let stop = Server.Drain.install_stop_handlers () in
  let summary, results =
    Service.Batch.run ~workers:jobs ~obs ~cancel:(fun () -> Atomic.get stop) ~warm_start
      ~members specs
  in
  if Atomic.get stop then begin
    (* a cancelled decision job answers unknown; a stopped optimisation job
       answers its incumbent with the gap still open *)
    let stopped_early (r : Service.Batch.job_result) =
      let record = r.Service.Batch.record in
      r.Service.Batch.outcome = Service.Job.Unknown Service.Job.Cancelled
      || (record.Service.Telemetry.cost >= 0
         && record.Service.Telemetry.cost <> record.Service.Telemetry.lower_bound)
    in
    Printf.eprintf "hyqsat: interrupted — %d job(s) stopped early, telemetry flushed\n%!"
      (List.length (List.filter stopped_early results))
  end;
  List.iter
    (fun r ->
      Option.iter
        (Printf.eprintf "hyqsat: %s: %s\n%!" r.Service.Batch.spec.Service.Job.name)
        r.Service.Batch.error)
    results;
  (* flush spans (and the trace file) before printing; metrics go to stdout
     as comment lines so the "s"/"v" output stays machine-parseable *)
  let metric_snapshot = Obs.Ctx.snapshot obs in
  Obs.Ctx.close obs;
  let records = List.map (fun r -> r.Service.Batch.record) results in
  let single = List.length results = 1 in
  print_answers ~json_out ~single summary
    (List.map
       (fun r ->
         ( r.Service.Batch.record,
           match r.Service.Batch.outcome with Service.Job.Sat m -> Some m | _ -> None ))
       results);
  if not json_out then begin
    (match (proof_file, results) with
    | Some path, [ r ] when r.Service.Batch.outcome = Service.Job.Unsat -> write_proof path r
    | _ -> ());
    if verbose then print_comment_block (Format.asprintf "%a" Service.Telemetry.pp_table records);
    if verbose || not single then
      print_comment_block (Format.asprintf "%a" Service.Telemetry.pp_summary summary)
  end;
  if metrics then print_string (Obs.Export.prometheus_string metric_snapshot);
  exit_code_of_records records

open Cmdliner

let paths_arg =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "Input files (one or more): DIMACS CNF decision instances, or WDIMACS $(b,.wcnf) \
           weighted-MaxSAT instances.")

(* one selector for the one-shot solver and the daemon *)
let solver_arg =
  let names =
    List.map (fun n -> (n, n)) Service.Portfolio.member_names @ [ ("portfolio", "portfolio") ]
  in
  let doc =
    Printf.sprintf
      "Solver run per job, %s: a portfolio member ($(b,hybrid) is QA+CDCL, \
       $(b,hybrid-noisy) the same under the D-Wave 2000Q noise model, the others classical \
       baselines), or $(b,portfolio) to race them all, cheapest first (the first definite \
       answer wins and cancels the rest)."
      (Arg.doc_alts_enum names)
  in
  Arg.(value & opt (enum names) "hybrid" & info [ "s"; "solver" ] ~docv:"KIND" ~doc)

let grid_arg =
  Arg.(value & opt int 16 & info [ "grid" ] ~docv:"N" ~doc:"Chimera grid size (N×N cells; 16 = D-Wave 2000Q).")

let seed_arg = Arg.(value & opt int 20230225 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print per-job telemetry.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains solving instances in parallel.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Per-instance wall-clock deadline, decision and MaxSAT jobs alike; expiry reports \
           $(b,unknown:timeout), or for MaxSAT the best incumbent and its lower bound.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"K"
        ~doc:"Retry an unknown outcome up to K times with reseeded solvers (deadline permitting).")

let max_iterations_arg =
  Arg.(
    value & opt int max_int
    & info [ "max-iterations" ] ~docv:"N" ~doc:"CDCL step budget per solve attempt.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the run telemetry (summary + per-job records) as JSON on stdout.")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Check every answer before reporting it: a SAT model is verified against the \
           $(i,original) formula (pre-3-SAT-conversion), an UNSAT answer must carry a DRAT \
           proof that passes the RUP checker.  A rejected claim is withheld and reported as \
           $(b,unknown:cert-failed).")

let proof_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "proof" ] ~docv:"FILE"
        ~doc:
          "Write the winner's DRAT proof to $(docv) when the (single) instance is UNSAT.  The \
           proof is stated over the formula the solver ran on (after any 3-SAT conversion).  \
           Implies proof logging.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSON-lines trace of the run to $(docv): one span per batch, job, solve \
           attempt and pipeline stage (frontend/embed/anneal/backend/cdcl), plus final metric \
           values.")

let warm_start_arg =
  Arg.(
    value & flag
    & info [ "warm-start" ]
        ~doc:
          "Share learnt clauses across the batch: a job whose formula equals one already \
           solved starts from the earlier race's learnt clauses.  Reuse is gated on formula \
           equality, so answers never change — only the work to reach them (see the \
           $(b,warm)/$(b,reused_clauses) telemetry columns).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Dump run metrics (counters, gauges, histograms) in Prometheus text format on stdout \
           after the results.")

let maxsat_arg =
  Arg.(
    value & flag
    & info [ "maxsat" ]
        ~doc:
          "Treat every input as a weighted MaxSAT instance and find a provably optimal model.  \
           Implied for $(b,.wcnf) files (WDIMACS, classic and 2022 dialects); on a plain CNF \
           every clause becomes soft at weight 1 (maximise satisfied clauses).  Prints \
           $(b,o <cost>) and $(b,s OPTIMUM FOUND); exit code 30 when the optimum is proven.")

let gap_limit_arg =
  Arg.(
    value & opt int 0
    & info [ "gap-limit" ] ~docv:"G"
        ~doc:
          "Optimisation jobs: accept any model whose cost is within $(docv) of the proven \
           lower bound instead of closing the gap entirely (0 = demand the exact optimum).")

let qa_reads_arg =
  Arg.(
    value & opt int 1
    & info [ "qa-reads" ] ~docv:"K"
        ~doc:
          "Annealer samples per QA call (best-of-$(docv) by energy, the multi-sample device \
           mode); 1 = the paper's single-shot protocol.")

let qa_domains_arg =
  Arg.(
    value & opt int 1
    & info [ "qa-domains" ] ~docv:"N"
        ~doc:
          "Chunks the $(b,--qa-reads) samples of one QA call are split into on the shared \
           domain pool.  The answer is deterministic in the seed whatever $(docv) is.")

let qa_fault_rate_arg =
  Arg.(
    value & opt float 0.
    & info [ "qa-fault-rate" ] ~docv:"P"
        ~doc:
          "Wrap the QA backend in the deterministic fault injector: each call fails with \
           probability $(docv) (timeout / unavailable / readout-corrupt / chain-break-storm, \
           equally weighted).  Failed calls are retried and circuit-broken by the supervisor; \
           when they exhaust, the warm-up iteration degrades to pure CDCL — answers are never \
           lost, only slower.")

let qa_timeout_us_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "qa-timeout-us" ] ~docv:"US"
        ~doc:
          "Per-QA-call deadline on the modelled device time, in microseconds; a call past it \
           is discarded as a timeout.  Default: no deadline.")

let qa_retries_arg =
  Arg.(
    value & opt int 2
    & info [ "qa-retries" ] ~docv:"K"
        ~doc:
          "Extra attempts after a failed QA call (deterministic exponential backoff with \
           jitter) before the warm-up iteration degrades to pure CDCL.")

(* ------------------------------------------------------------------ *)
(* serve: the long-lived daemon *)

let serve_main socket port metrics_port workers queue_capacity per_client grace solver grid
    seed trace_file json_out =
  if socket = None && port = None then begin
    Printf.eprintf "hyqsat serve: need --socket PATH and/or --port P\n";
    exit 2
  end;
  check_grid "hyqsat serve" grid;
  (* a live obs context always: the /metrics endpoint and jobs_total
     counters depend on it, trace file or not *)
  let obs = Obs.Ctx.create () in
  Option.iter (fun path -> Obs.Ctx.attach obs (Obs.Export.file_jsonl path)) trace_file;
  let stop = Server.Drain.install_stop_handlers () in
  let config =
    {
      Server.Daemon.unix_socket = socket;
      tcp_port = port;
      metrics_port;
      dispatch =
        {
          Server.Dispatch.workers;
          queue_capacity;
          per_client;
          grace_s = grace;
          solver;
          grid;
          seed;
        };
    }
  in
  let ready = ref false in
  let report =
    try
      Server.Daemon.run ~obs ~stop
        ~on_ready:(fun r ->
          ready := true;
          Option.iter
            (Printf.printf "c listening on unix socket %s\n%!")
            r.Server.Daemon.r_unix_socket;
          Option.iter
            (Printf.printf "c listening on tcp 127.0.0.1:%d\n%!")
            r.Server.Daemon.r_tcp_port;
          Option.iter
            (Printf.printf "c metrics on http://127.0.0.1:%d/metrics\n%!")
            r.Server.Daemon.r_metrics_port)
        config
    with Unix.Unix_error (e, fn, addr) when not !ready ->
      (* a listener that cannot be set up is a flag error; the daemon
         has already freed what it opened, and [addr] names the socket
         path or port *)
      Obs.Ctx.close obs;
      Printf.eprintf "hyqsat serve: %s: %s\n"
        (String.trim (fn ^ " " ^ addr))
        (Unix.error_message e);
      exit 2
  in
  Obs.Ctx.close obs;
  if json_out then print_endline (Server.Drain.to_json_string report)
  else print_endline (Format.asprintf "c %a" Server.Drain.pp report);
  0

(* ------------------------------------------------------------------ *)
(* submit: the thin client *)

let submit_main paths socket port certify timeout retries max_iterations seed priority
    session events json_out verbose maxsat gap_limit =
  if paths = [] then begin
    Printf.eprintf "hyqsat submit: no input files\n";
    exit 2
  end;
  let t =
    match (socket, port) with
    | Some s, _ -> Server.Client.connect_unix s
    | None, Some p -> Server.Client.connect_tcp ~port:p
    | None, None ->
        Printf.eprintf "hyqsat submit: need --socket PATH or --port P\n";
        exit 2
  in
  let exit_err msg =
    Printf.eprintf "hyqsat submit: %s\n" msg;
    Server.Client.close t;
    exit 2
  in
  (try Server.Client.handshake ~client:"hyqsat-submit" t
   with Server.Client.Protocol_error m -> exit_err m);
  if events then Server.Client.send t (Server.Protocol.Subscribe { events = true });
  List.iteri
    (fun i path ->
      let js =
        job_spec_of_file ~maxsat ~gap_limit ~certify ~timeout ~max_iterations ~retries ~seed i
          path
      in
      Server.Client.send t (Server.Protocol.Submit { js with priority; session }))
    paths;
  let n = List.length paths in
  let results = Array.make n None in
  let outstanding = ref n in
  (try
     while !outstanding > 0 do
       match Server.Client.recv t with
       | Server.Protocol.Result { id; record; model } when id >= 0 && id < n ->
           results.(id) <- Some (record, model);
           decr outstanding
       | Server.Protocol.Rejected { id; code; reason; retry_after_s } ->
           Printf.eprintf "hyqsat submit: %s rejected (%s): %s%s\n%!"
             (try List.nth paths id with _ -> string_of_int id)
             code reason
             (match retry_after_s with
             | Some s -> Printf.sprintf " (retry after %.1fs)" s
             | None -> "");
           decr outstanding
       | Server.Protocol.Event { job; name; dur_s; attrs } ->
           if events then
             Printf.printf "c event%s %s %.4fs%s\n%!"
               (match job with Some j -> Printf.sprintf " [job %d]" j | None -> "")
               name dur_s
               (String.concat ""
                  (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) attrs))
       | Server.Protocol.Drained _ -> outstanding := 0
       | Server.Protocol.Error_msg { code; reason } ->
           Printf.eprintf "hyqsat submit: server error (%s): %s\n%!" code reason
       | Server.Protocol.Accepted _ | Server.Protocol.Welcome _ | Server.Protocol.Pong _ -> ()
       | Server.Protocol.Result _ -> ()
     done;
     Server.Client.send t Server.Protocol.Bye
   with Server.Client.Protocol_error m -> exit_err m);
  Server.Client.close t;
  let answers = Array.to_list results |> List.filter_map Fun.id in
  let records = List.map fst answers in
  print_answers ~json_out ~single:(n = 1)
    (Service.Telemetry.summarize ~workers:0 ~wall_time_s:0. records)
    answers;
  if verbose && not json_out then
    print_comment_block (Format.asprintf "%a" Service.Telemetry.pp_table records);
  if List.length answers < n then 0 (* a rejected/unanswered job is an unknown *)
  else exit_code_of_records records

(* ------------------------------------------------------------------ *)
(* command plumbing *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket the daemon listens on.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"P" ~doc:"Loopback TCP port for the wire protocol (0 = ephemeral).")

let metrics_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"P"
        ~doc:"Loopback HTTP port serving $(b,/metrics) (Prometheus text) and $(b,/healthz).")

let queue_capacity_arg =
  Arg.(
    value & opt int 64
    & info [ "queue-capacity" ] ~docv:"N"
        ~doc:
          "Admission queue bound; a submit beyond it is rejected with $(b,queue_full) and a \
           retry-after hint.")

let per_client_arg =
  Arg.(
    value & opt int 16
    & info [ "per-client" ] ~docv:"N" ~doc:"Max jobs one client may have in flight at once.")

let grace_arg =
  Arg.(
    value & opt float 2.0
    & info [ "grace" ] ~docv:"SECS"
        ~doc:
          "Drain grace period: how long running jobs get after SIGTERM/SIGINT before being \
           cancelled cooperatively.")

let priority_arg =
  Arg.(
    value & opt int 0
    & info [ "priority" ] ~docv:"N"
        ~doc:"Admission priority (higher runs sooner; FIFO within a priority).")

let session_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "session" ] ~docv:"NAME"
        ~doc:
          "Submit every instance under one server-side session: the daemon keeps the learnt \
           clauses from earlier jobs of the session and warm-starts a later job whose formula \
           equals an earlier one.  The first job of a session answers exactly like a one-shot \
           submit.")

let events_arg =
  Arg.(
    value & flag
    & info [ "events" ] ~doc:"Subscribe to progress events and print them as comment lines.")

let serve_cmd =
  let doc = "run the persistent solver daemon" in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const serve_main $ socket_arg $ port_arg $ metrics_port_arg $ jobs_arg
      $ queue_capacity_arg $ per_client_arg $ grace_arg $ solver_arg $ grid_arg
      $ seed_arg $ trace_arg $ json_arg)

let submit_cmd =
  let doc = "submit DIMACS instances to a running daemon" in
  Cmd.v
    (Cmd.info "submit" ~doc)
    Term.(
      const submit_main $ paths_arg $ socket_arg $ port_arg $ certify_arg $ timeout_arg
      $ retries_arg $ max_iterations_arg $ seed_arg $ priority_arg $ session_arg $ events_arg
      $ json_arg $ verbose_arg $ maxsat_arg $ gap_limit_arg)

let solve_term =
  Term.(
    const main $ paths_arg $ solver_arg $ grid_arg $ seed_arg $ verbose_arg $ jobs_arg
    $ timeout_arg $ retries_arg $ max_iterations_arg $ json_arg $ certify_arg $ proof_arg
    $ trace_arg $ metrics_arg $ warm_start_arg $ maxsat_arg $ gap_limit_arg $ qa_reads_arg
    $ qa_domains_arg $ qa_fault_rate_arg $ qa_timeout_us_arg $ qa_retries_arg)

let solve_cmd =
  let doc = "solve DIMACS instances in-process (the default command)" in
  Cmd.v (Cmd.info "solve" ~doc) solve_term

let cmd =
  let doc = "hybrid quantum-annealer + CDCL 3-SAT solver (HyQSAT, HPCA'23)" in
  Cmd.group ~default:solve_term (Cmd.info "hyqsat" ~doc) [ solve_cmd; serve_cmd; submit_cmd ]

(* keep `hyqsat FILE...` working: a first argument that is not a known
   sub-command (or an option) is a CNF path for the default solve command,
   not a command name for Cmd.group to trip over *)
let argv =
  let av = Sys.argv in
  if Array.length av > 1 then
    match av.(1) with
    | "solve" | "serve" | "submit" -> av
    | s when String.length s > 0 && s.[0] <> '-' ->
        Array.append [| av.(0); "solve" |] (Array.sub av 1 (Array.length av - 1))
    | _ -> av
  else av

let () = exit (Cmd.eval' ~argv cmd)
