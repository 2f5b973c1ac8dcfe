module Job = Service.Job
module Batch = Service.Batch

type config = {
  workers : int;
  queue_capacity : int;
  per_client : int;
  grace_s : float;
  solver : string;
  grid : int;
  seed : int;
}

let default_config =
  {
    workers = 1;
    queue_capacity = 64;
    per_client = 16;
    grace_s = 2.0;
    solver = "hybrid";
    grid = 16;
    seed = 42;
  }

type verdict =
  | Accepted of { position : int; queued : int }
  | Rejected of { code : string; reason : string; retry_after_s : float option }

type completion = {
  client : string;
  conn : int;
  job_id : int;
  result : Batch.job_result;
}

type counters = {
  accepted : int;
  completed : int;
  cancelled_queued : int;
  cancelled_running : int;
}

type entry = {
  e_client : string;
  e_conn : int;
  e_job_id : int;
  e_warm : Batch.Warm.t option;  (* the session's learnt-clause pool *)
  spec : Job.spec;
  enqueued_at : float;
}

type t = {
  config : config;
  obs : Obs.Ctx.t;
  on_complete : unit -> unit;  (* fired by a worker domain after each job *)
  pool : Parallel.Pool.t;
  queue : entry Jobq.t;
  quota : Quota.t;
  cancel : bool Atomic.t;
  (* worker domains append here; everything else is event-loop-only *)
  comp_mutex : Mutex.t;
  mutable comp_queue : completion list;  (* newest first; reversed on take *)
  mutable drained : completion list;  (* drain-cancelled queue entries, event-loop only *)
  mutable running : int;
  mutable draining : bool;
  mutable counters : counters;
  (* event-loop-only: one learnt-clause pool per "client\x00session-name" *)
  sessions : (string, Batch.Warm.t) Hashtbl.t;
}

let create ?(obs = Obs.Ctx.null) ?(on_complete = fun () -> ()) config =
  {
    config;
    obs;
    on_complete;
    pool = Parallel.Pool.create ~workers:config.workers;
    queue = Jobq.create ~capacity:config.queue_capacity;
    quota = Quota.create ~limit:config.per_client;
    cancel = Atomic.make false;
    comp_mutex = Mutex.create ();
    comp_queue = [];
    drained = [];
    running = 0;
    draining = false;
    counters = { accepted = 0; completed = 0; cancelled_queued = 0; cancelled_running = 0 };
    sessions = Hashtbl.create 8;
  }

(* one job on a pool worker: solve, then hand the completion to the event
   loop through [comp_queue] *)
let run_entry t entry ~worker =
  let result =
    Batch.process ~cancel:(fun () -> Atomic.get t.cancel) ?warm:entry.e_warm ~worker
      ~attrs:[ ("client", entry.e_client) ]
      ~members:(Batch.resolve ~grid:t.config.grid t.config.solver)
      ~obs:t.obs ~parent:Obs.Span.none entry.spec ~enqueued_at:entry.enqueued_at ()
  in
  let completion =
    { client = entry.e_client; conn = entry.e_conn; job_id = entry.e_job_id; result }
  in
  Mutex.lock t.comp_mutex;
  t.comp_queue <- completion :: t.comp_queue;
  Mutex.unlock t.comp_mutex;
  t.on_complete ()

let queued t = Jobq.length t.queue
let running t = t.running
let counters t = t.counters
let draining t = t.draining

let pump t =
  let rec go () =
    if t.running < t.config.workers then
      match Jobq.pop t.queue with
      | Some entry ->
          t.running <- t.running + 1;
          Parallel.Pool.submit t.pool (run_entry t entry);
          go ()
      | None -> ()
  in
  go ()

(* a fresh slot opens roughly when one of the queued-ahead jobs finishes;
   with no better signal, suggest one queue-drain's worth of patience *)
let retry_hint t = Float.max 0.1 (0.5 *. float_of_int (1 + Jobq.length t.queue))

(* bound the session table: past the cap a new session name gets no
   shared state (its jobs still solve, just cold) rather than letting a
   client grow server memory without limit *)
let max_sessions = 64

let session_for t ~client = function
  | None -> None
  | Some name -> (
      let key = client ^ "\x00" ^ name in
      match Hashtbl.find_opt t.sessions key with
      | Some w -> Some w
      | None when Hashtbl.length t.sessions >= max_sessions -> None
      | None ->
          let w = Batch.Warm.create () in
          Hashtbl.add t.sessions key w;
          Some w)

(* the first numeric field out of range, named as the wire names it *)
let field_error (js : Protocol.job_spec) =
  match js with
  | { gap_limit; _ } when gap_limit < 0 ->
      Some (Printf.sprintf "gap_limit must be >= 0, got %d" gap_limit)
  | { retries; _ } when retries < 0 -> Some (Printf.sprintf "retries must be >= 0, got %d" retries)
  | { max_iterations; _ } when max_iterations < 1 ->
      Some (Printf.sprintf "max_iterations must be >= 1, got %d" max_iterations)
  | { timeout_s = Some s; _ } when not (Float.is_finite s && s > 0.) ->
      Some (Printf.sprintf "timeout_s must be finite and > 0, got %g" s)
  | _ -> None

(* the one place a job is built: the daemon admits every submit through it
   and the one-shot CLI converts its own specs with it *)
let job_of_spec ?qa ~seed (js : Protocol.job_spec) =
  let parse parse_string =
    match parse_string js.Protocol.dimacs with
    | exception e -> Error (Printexc.to_string e)
    | x -> Ok x
  in
  let seed = Option.value js.Protocol.seed ~default:(seed + (101 * js.Protocol.id)) in
  let { Protocol.name; certify; timeout_s; max_iterations; retries; id; _ } = js in
  let optimize w =
    Job.optimize ~name ~gap_limit:js.Protocol.gap_limit ~certify ?timeout_s ~max_iterations
      ~retries ?qa ~seed ~id w
  in
  match (field_error js, js.Protocol.format) with
  | Some reason, _ -> Error reason
  | None, None ->
      Result.map
        (fun f -> Job.make ~name ~certify ?timeout_s ~max_iterations ~retries ?qa ~seed ~id f)
        (parse Sat.Dimacs.parse_string)
  | None, Some "wcnf" -> Result.map optimize (parse Sat.Wcnf.parse_string)
  | None, Some "maxsat" ->
      Result.map (fun f -> optimize (Sat.Wcnf.of_cnf f)) (parse Sat.Dimacs.parse_string)
  | None, Some other ->
      Error (Printf.sprintf "format %S unknown (supported: \"wcnf\", \"maxsat\")" other)

let submit t ~client ~conn (js : Protocol.job_spec) =
  if t.draining then
    Rejected { code = "draining"; reason = "server is shutting down"; retry_after_s = None }
  else
    match job_of_spec ~seed:t.config.seed js with
    | Error reason -> Rejected { code = "parse"; reason; retry_after_s = None }
    | Ok spec ->
        if not (Quota.admit t.quota client) then
          Rejected
            {
              code = "quota";
              reason =
                Printf.sprintf "client %S already has %d job(s) in flight" client
                  (Quota.load t.quota client);
              retry_after_s = None;
            }
        else begin
          let entry =
            {
              e_client = client;
              e_conn = conn;
              e_job_id = js.Protocol.id;
              e_warm = session_for t ~client js.Protocol.session;
              spec;
              enqueued_at = Unix.gettimeofday ();
            }
          in
          match Jobq.push t.queue ~priority:js.Protocol.priority entry with
          | `Full ->
              Quota.release t.quota client;
              Rejected
                {
                  code = "queue_full";
                  reason =
                    Printf.sprintf "admission queue at capacity (%d)" (Jobq.capacity t.queue);
                  retry_after_s = Some (retry_hint t);
                }
          | `Ok position ->
              t.counters <- { t.counters with accepted = t.counters.accepted + 1 };
              let queued = Jobq.length t.queue in
              pump t;
              Accepted { position; queued }
        end

let record_retirement t (c : completion) ~was_running =
  Quota.release t.quota c.client;
  let cs = t.counters in
  t.counters <-
    (match c.result.Batch.outcome with
    | Job.Unknown Job.Cancelled when was_running ->
        { cs with cancelled_running = cs.cancelled_running + 1 }
    | Job.Unknown Job.Cancelled -> { cs with cancelled_queued = cs.cancelled_queued + 1 }
    | _ -> { cs with completed = cs.completed + 1 })

let take_completions t =
  let dropped = List.rev t.drained in
  t.drained <- [];
  Mutex.lock t.comp_mutex;
  let batch = List.rev t.comp_queue in
  t.comp_queue <- [];
  Mutex.unlock t.comp_mutex;
  List.iter
    (fun c ->
      t.running <- t.running - 1;
      record_retirement t c ~was_running:true)
    batch;
  pump t;
  dropped @ batch

let idle t =
  Jobq.is_empty t.queue && t.running = 0 && t.drained = []
  &&
  (Mutex.lock t.comp_mutex;
   let empty = t.comp_queue = [] in
   Mutex.unlock t.comp_mutex;
   empty)

let begin_drain t =
  if not t.draining then begin
    t.draining <- true;
    let now = Unix.gettimeofday () in
    let dropped = Jobq.clear t.queue in
    List.iter
      (fun entry ->
        let c =
          {
            client = entry.e_client;
            conn = entry.e_conn;
            job_id = entry.e_job_id;
            result =
              Batch.unstarted entry.spec (Job.Unknown Job.Cancelled)
                ~queue_wait_s:(now -. entry.enqueued_at);
          }
        in
        record_retirement t c ~was_running:false;
        t.drained <- c :: t.drained)
      dropped
  end

let cancel_running t = Atomic.set t.cancel true

let shutdown t = Parallel.Pool.shutdown t.pool
