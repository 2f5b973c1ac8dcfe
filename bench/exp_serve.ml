(* Daemon throughput benchmark (no paper analogue): solve the same uf30
   batch in-process through Service.Batch and over the wire through a live
   `hyqsat serve` daemon on a Unix socket, and report the protocol +
   scheduling overhead per job.  Writes BENCH_serve.json at the repo root.

   Methodology: one untimed warm-up round of each path (pages in the
   solver, the allocator and the socket stack), then the median wall of
   [trials] timed rounds per path.  Medians, not minima — the overhead is
   a *difference* of two measured paths, and subtracting each path's
   luckiest run can (and historically did) go negative.

   The gate is correctness, not speed: every wire round must return
   exactly the outcomes the in-process run returned (the daemon feeds the
   same Batch.process pipeline, so any divergence is a bug), and every
   job must be answered. *)

let instances (ctx : Bench_util.ctx) count =
  let rng = Bench_util.rng_of ctx 91 in
  List.init count (fun i ->
      (Printf.sprintf "uf30-%02d" i, Workload.Uniform.uf rng 30, ctx.seed + (101 * i)))

let run (ctx : Bench_util.ctx) =
  Bench_util.header "Daemon wire-protocol throughput"
    "no paper analogue; hyqsat serve overhead vs in-process batch on uf30";
  let count = match ctx.scale with `Paper -> 30 | `Small -> 10 in
  let jobs = instances ctx count in

  (* in-process reference: the exact pipeline the daemon dispatches to *)
  let specs =
    List.mapi
      (fun i (name, f, seed) -> ignore i; Service.Job.make ~name ~seed ~id:i f)
      jobs
  in
  let members ~spec ~seed = Service.Batch.solo "hybrid" ~spec ~seed in
  let direct_once () =
    let (_, direct_results), wall =
      Bench_util.wall (fun () -> Service.Batch.run ~members specs)
    in
    let outcomes =
      List.map (fun r -> r.Service.Batch.record.Service.Telemetry.outcome) direct_results
    in
    (outcomes, wall)
  in

  (* one wire round: fresh daemon on a fresh Unix socket, blocking client;
     daemon start-up and teardown stay outside the timed section *)
  let wire_once () =
    let socket = Filename.temp_file "hyqsat-bench" ".sock" in
    Sys.remove socket;
    let stop = Atomic.make false in
    let ready = Atomic.make false in
    let daemon =
      Thread.create
        (fun () ->
          ignore
            (Server.Daemon.run ~stop
               ~on_ready:(fun _ -> Atomic.set ready true)
               {
                 Server.Daemon.default_config with
                 Server.Daemon.unix_socket = Some socket;
                 dispatch =
                   {
                     Server.Dispatch.default_config with
                     Server.Dispatch.workers = 1;
                     queue_capacity = count + 2;
                     per_client = count + 2;
                     seed = ctx.seed;
                   };
               }))
        ()
    in
    while not (Atomic.get ready) do
      Thread.yield ()
    done;
    let wire_outcomes = Array.make count "" in
    let (), wall =
      Bench_util.wall (fun () ->
          let t = Server.Client.connect_unix socket in
          Server.Client.handshake ~client:"bench-serve" t;
          List.iteri
            (fun i (name, f, seed) ->
              Server.Client.send t
                (Server.Protocol.Submit
                   (Server.Protocol.make_job_spec ~name ~seed ~id:i
                      (Sat.Dimacs.to_string f))))
            jobs;
          let outstanding = ref count in
          while !outstanding > 0 do
            match Server.Client.recv ~timeout_s:300. t with
            | Server.Protocol.Result { id; record; _ } ->
                wire_outcomes.(id) <- record.Service.Telemetry.outcome;
                decr outstanding
            | Server.Protocol.Rejected { id; code; reason; _ } ->
                failwith
                  (Printf.sprintf "bench serve: job %d rejected (%s): %s" id code reason)
            | _ -> ()
          done;
          Server.Client.send t Server.Protocol.Bye;
          Server.Client.close t)
    in
    Atomic.set stop true;
    Thread.join daemon;
    (Array.to_list wire_outcomes, wall)
  in

  let trials = 3 in
  (* warm-up round of each path, untimed *)
  let direct_outcomes, _ = direct_once () in
  ignore (wire_once ());
  let direct_runs = List.init trials (fun _ -> direct_once ()) in
  let wire_runs = List.init trials (fun _ -> wire_once ()) in
  let check_outcomes tag outcomes =
    if outcomes <> direct_outcomes then begin
      Printf.eprintf
        "bench serve: ANSWER MISMATCH — %s outcomes differ from the in-process batch\n" tag;
      List.iteri
        (fun i (d, w) -> if d <> w then Printf.eprintf "  job %d: direct=%s %s=%s\n" i d tag w)
        (List.combine direct_outcomes outcomes);
      exit 1
    end
  in
  List.iter (fun (o, _) -> check_outcomes "direct" o) direct_runs;
  List.iter (fun (o, _) -> check_outcomes "wire" o) wire_runs;
  let direct_wall = Bench_util.median (List.map snd direct_runs) in
  let wire_wall = Bench_util.median (List.map snd wire_runs) in

  Printf.printf "%8s %8s %12s %12s %16s\n" "jobs" "trials" "direct(s)" "wire(s)"
    "overhead/job";
  Bench_util.hr ();
  Printf.printf "%8d %8d %12.3f %12.3f %13.2f ms   (medians)\n\n" count trials direct_wall
    wire_wall
    (1000. *. (wire_wall -. direct_wall) /. float_of_int count);

  let jobs_per_s wall = Bench_util.num (float_of_int count /. wall) in
  Bench_util.write_json ctx "serve"
    [
      ("jobs", Int count);
      ("trials", Int trials);
      ("direct_wall_s", Bench_util.num direct_wall);
      ("direct_jobs_per_s", jobs_per_s direct_wall);
      ("wire_wall_s", Bench_util.num wire_wall);
      ("wire_jobs_per_s", jobs_per_s wire_wall);
      ( "overhead_ms_per_job",
        Bench_util.num (1000. *. (wire_wall -. direct_wall) /. float_of_int count) );
      ("outcomes", Arr (List.map (fun o -> Json.Str o) direct_outcomes));
    ];
  Printf.printf "wire outcomes match the in-process batch (%d jobs x %d rounds)\n" count
    trials
