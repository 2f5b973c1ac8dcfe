(* The repo benchmark: one closed-loop client drives a `hyqsat serve`
   daemon over a Unix socket through one named workload, checks every
   answer, and prints the end-to-end metrics (--trace 0) or the per-layer
   breakdown of a traced in-process replay (--trace 1).  The last line of
   stdout is the JSON result; see README.md for the metric definitions.

   Usage: hqbench --workload NAME --seed N --seconds S --trace 0|1
                  [--daemon-exe PATH]

   Exit codes: 0 all answers correct, 1 a wrong, uncertified or missing
   answer (the JSON line still prints, with "correct": false), 2 usage or
   set-up error (nothing printed on stdout). *)

let min_timed_jobs = 100 (* so at least ten latencies lie beyond p90 *)
let setup_rounds = 3
let traced_jobs = 40

(* at most two workers, and never more than the cores: multi-worker
   figures from a machine without the cores are noise *)
let workers = max 1 (min 2 (Domain.recommended_domain_count ()))

let git_commit () =
  let read p = String.trim (Common.read_file p) in
  try
    match read ".git/HEAD" with
    | head when String.starts_with ~prefix:"ref: " head ->
        read (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))
    | sha -> sha
  with Sys_error _ | Invalid_argument _ -> "unknown"

let env_json (w : Workloads.t) ~daemon_mode =
  let solver =
    if Array.exists (fun j -> j.Workloads.format <> None) w.Workloads.jobs then "optimize"
    else w.Workloads.solver
  in
  Printf.sprintf
    "{\"env\": {\"nproc\": %d, \"ocaml\": %S, \"commit\": %S, \"workers\": %d, \"daemon\": %S, \
     \"workload\": %S, \"solver\": %S, \"pool\": %d}}"
    (Domain.recommended_domain_count ()) Sys.ocaml_version (git_commit ()) workers daemon_mode
    w.Workloads.name solver (Array.length w.Workloads.jobs)

(* Gate every reply against the oracle; a pool entry must also answer
   identically (outcome and iterations) every time it comes round.
   Returns [(wire id, why)] for every failed job: wrong or uncertified
   answers, rejections, and jobs a broken connection left unanswered. *)
let gate_replies oracles (loop : Served.loop) =
  let seen = Hashtbl.create 64 in
  let settled = Hashtbl.create 64 in
  let failures = ref [] in
  let fail id why = failures := (id, why) :: !failures in
  List.iter
    (fun (r : Served.reply) ->
      let job = r.Served.job and record = r.Served.record in
      Hashtbl.replace settled r.Served.id ();
      let key = (record.Service.Telemetry.outcome, record.iterations) in
      let repeat_ok =
        match Hashtbl.find_opt seen job.Workloads.idx with
        | None ->
            Hashtbl.add seen job.Workloads.idx key;
            true
        | Some k -> k = key
      in
      match Workloads.gate job oracles.(job.Workloads.idx) record r.Served.model with
      | Error why -> fail r.Served.id (job.Workloads.name ^ ": " ^ why)
      | Ok () when not repeat_ok ->
          fail r.Served.id (job.Workloads.name ^ ": differs from its earlier answer")
      | Ok () -> ())
    loop.Served.replies;
  List.iter
    (fun (id, why) ->
      Hashtbl.replace settled id ();
      fail id ("rejected: " ^ why))
    loop.Served.rejected;
  for id = 1 to loop.Served.submitted do
    if not (Hashtbl.mem settled id) then
      fail id ("unanswered: " ^ Option.value ~default:"" loop.Served.transport)
  done;
  List.rev !failures

(* jobs with at least one failure *)
let failed_jobs failures = List.length (List.sort_uniq compare (List.map fst failures))

(* generate, start the daemon, handshake, one untimed warm-up job *)
let setup ~exe ~name ~seed =
  let t0 = Common.now () in
  let w = Workloads.make name ~seed in
  let d = Served.start ~exe ~workers ~solver:w.Workloads.solver ~seed in
  let warm = Served.closed_loop d [| Workloads.warmup name |] ~window:1 ~more:(fun k -> k = 1) in
  let setup_s = Common.now () -. t0 in
  (match warm.Served.replies with
  | [ r ] when r.Served.record.Service.Telemetry.outcome <> "" -> ()
  | _ -> failwith "warm-up job was not answered");
  (w, d, setup_s)

(* [setup_rounds] set-ups; all but the last daemon are stopped again *)
let repeated_setup ~exe ~name ~seed =
  let rec go k times =
    let w, d, s = setup ~exe ~name ~seed in
    if k = 1 then (w, d, s :: times)
    else begin
      Served.stop d;
      go (k - 1) (s :: times)
    end
  in
  let w, d, times = go setup_rounds [] in
  (w, d, Common.median times)

let end_to_end ~exe ~name ~seed ~seconds =
  let w, d, setup_s = repeated_setup ~exe ~name ~seed in
  let oracles = Array.map Workloads.oracle w.Workloads.jobs in
  let size = Array.length w.Workloads.jobs in
  (* past [seconds], keep going (for at most a quarter as long again)
     until 100 jobs and every pool entry have been answered *)
  let t0 = Common.now () in
  let more k =
    let t = Common.now () -. t0 in
    t < seconds || (k <= max min_timed_jobs size && t < 1.25 *. seconds)
  in
  let loop = Served.closed_loop d w.Workloads.jobs ~window:workers ~more in
  let peak_rss_mb = Served.peak_rss_mb d in
  let mode = Served.mode d in
  Served.stop d;
  let failures = gate_replies oracles loop in
  let latencies = List.map (fun (r : Served.reply) -> r.Served.latency_s) loop.Served.replies in
  (* search effort per pool entry: a count that repeats exactly per seed *)
  let per_entry = Hashtbl.create 64 in
  List.iter
    (fun (r : Served.reply) ->
      Hashtbl.replace per_entry r.Served.job.Workloads.idx
        (float_of_int r.Served.record.Service.Telemetry.iterations))
    loop.Served.replies;
  let answered = List.length loop.Served.replies in
  let m = Common.metric in
  let metrics =
    [
      m "jobs_per_s" "jobs/s" (Common.ratio (float_of_int answered) loop.Served.wall_s);
      m "job_latency_p50_ms" "ms" (1e3 *. Common.quantile 0.5 latencies);
      m "job_latency_p90_ms" "ms" (1e3 *. Common.quantile 0.9 latencies);
      m "iterations_per_job" "count" (Common.mean (List.of_seq (Hashtbl.to_seq_values per_entry)));
      m "peak_rss_mb" "MB" peak_rss_mb;
      m "setup_s" "s" setup_s;
    ]
  in
  let attempted = loop.Served.submitted in
  let failed_ratio =
    Common.ratio (float_of_int (failed_jobs failures)) (float_of_int attempted)
  in
  Printf.printf "%s\n" (env_json w ~daemon_mode:mode);
  Common.print_metrics
    ~title:
      (Printf.sprintf "end-to-end, workload %s: %d jobs answered in %.3f s" name answered
         loop.Served.wall_s)
    (metrics @ [ m "failed_ratio" "ratio" failed_ratio ]);
  (metrics, attempted, failures)

let per_layer ~exe ~name ~seed =
  let w, d, _ = setup ~exe ~name ~seed in
  let oracles = Array.map Workloads.oracle w.Workloads.jobs in
  let size = min traced_jobs (Array.length w.Workloads.jobs) in
  let loop = Served.closed_loop d w.Workloads.jobs ~window:workers ~more:(fun k -> k <= size) in
  let mode = Served.mode d in
  Served.stop d;
  let failures = gate_replies oracles loop in
  let metrics, mismatches = Traced.run w.Workloads.solver ~daemon:loop ~workers in
  Printf.printf "%s\n" (env_json w ~daemon_mode:mode);
  Common.print_metrics
    ~title:(Printf.sprintf "per-layer, workload %s: %d jobs replayed in-process" name size)
    metrics;
  (metrics, loop.Served.submitted, failures @ mismatches)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* exiting runs the at_exit hook that stops the daemon *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigint; Sys.sigterm ];
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let exe = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " Workloads.names);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--daemon-exe", Arg.String (fun s -> exe := Some s), " the hyqsat CLI binary");
    ]
  in
  let usage = "hqbench --workload NAME --seed N --seconds S --trace 0|1" in
  let bad msg =
    Printf.eprintf "hqbench: %s\n" msg;
    exit 2
  in
  (try Arg.parse_argv Sys.argv (Arg.align spec) (fun a -> bad ("unexpected argument " ^ a)) usage
   with Arg.Bad msg | Arg.Help msg -> bad msg);
  if not (List.mem !workload Workloads.names) then bad ("unknown workload " ^ !workload);
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  let metrics, attempted, failures =
    try
      if !trace = 0 then end_to_end ~exe:!exe ~name:!workload ~seed:!seed ~seconds:!seconds
      else per_layer ~exe:!exe ~name:!workload ~seed:!seed
    with e -> bad ("set-up failed: " ^ Printexc.to_string e)
  in
  List.iter (fun (id, why) -> Printf.eprintf "hqbench: job %d FAILED %s\n" id why) failures;
  let failed = failed_jobs failures in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (Common.metrics_json metrics);
  exit (if failed = 0 then 0 else 1)
