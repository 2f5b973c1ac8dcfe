module Job = Service.Job
module Batch = Service.Batch
module Portfolio = Service.Portfolio
module Telemetry = Service.Telemetry

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
  error : string option;
}

type counters = {
  accepted : int;
  completed : int;
  cancelled_queued : int;
  cancelled_running : int;
}

(* Per-(client, session-name) solver state.  The learnt-clause pool is
   internally synchronised, so concurrent same-session jobs may both use
   it.  The embedding cache is NOT domain-safe: workers lease it through
   [cache_lock] with a try-lock — whoever holds the lease gets the cache,
   a concurrent same-session job just solves without it.  [cache] is
   [None] when the server config cannot share one (portfolio races would
   hand it to sibling domains; a non-default grid makes the members build
   a fresh graph per solve, and a cache is bound to one graph value). *)
type session = {
  s_warm : Batch.Warm.t;
  s_cache_lock : Mutex.t;
  s_cache : Hyqsat.Frontend.cache option;
}

type entry = {
  e_client : string;
  e_conn : int;
  e_job_id : int;
  e_session : session option;
  spec : Job.spec;
  enqueued_at : float;
}

type t = {
  config : config;
  obs : Obs.Ctx.t;
  supervisor : Anneal.Supervisor.t;
  pool : (entry, unit) Parallel.Pool.t;
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
  (* event-loop-only: keyed by "client\x00session-name" *)
  sessions : (string, session) Hashtbl.t;
}

let synthesized_result (spec : Job.spec) outcome ~queue_wait_s =
  let record =
    {
      Telemetry.job_id = spec.Job.id;
      job_name = spec.Job.name;
      outcome = Job.outcome_label outcome;
      verified = "";
      winner = "";
      attempts = 0;
      queue_wait_s;
      solve_time_s = 0.;
      iterations = 0;
      qa_calls = 0;
      qa_failures = 0;
      degraded = 0;
      strategy_uses = Array.make 4 0;
      warm_start = false;
      reused_clauses = 0;
      cost = -1;
      lower_bound = -1;
    }
  in
  {
    Batch.spec;
    outcome;
    record;
    race = { Portfolio.winner = None; members = []; wall_time_s = 0. };
  }

let create ?(obs = Obs.Ctx.null) ?(on_complete = fun () -> ()) config =
  let qa = Job.default_qa in
  let supervisor =
    Anneal.Supervisor.create ~obs ~policy:qa.Job.supervision ~seed:(config.seed + 77)
      (Anneal.Backend.simulator qa.Job.faults)
  in
  let traced = not (Obs.Ctx.is_null obs) in
  let comp_mutex = Mutex.create () in
  let rec t =
    lazy
      {
        config;
        obs;
        supervisor;
        pool =
          Parallel.Pool.create ~workers:config.workers (fun ~worker entry ->
              let d = Lazy.force t in
              let leased =
                match entry.e_session with
                | Some s when s.s_cache <> None && Mutex.try_lock s.s_cache_lock -> Some s
                | _ -> None
              in
              let embed_cache = match leased with Some s -> s.s_cache | None -> None in
              let warm = match entry.e_session with Some s -> Some s.s_warm | None -> None in
              let members ~spec ~seed =
                let log_proof = spec.Job.certify in
                if config.solver = "portfolio" then
                  Portfolio.default_members ~grid:config.grid ~log_proof ~qa:spec.Job.qa
                    ~supervisor ~seed ()
                else
                  Batch.solo ~grid:config.grid ~log_proof ~supervisor ?embed_cache
                    config.solver ~spec ~seed
              in
              let jspan =
                if traced then
                  Obs.Span.start obs
                    ~attrs:
                      [
                        ("id", string_of_int entry.spec.Job.id);
                        ("name", entry.spec.Job.name);
                        ("worker", string_of_int worker);
                        ("client", entry.e_client);
                      ]
                    "job"
                else Obs.Span.none
              in
              let cancel () = Atomic.get d.cancel in
              let result, error =
                match
                  Fun.protect
                    ~finally:(fun () ->
                      match leased with
                      | Some s -> Mutex.unlock s.s_cache_lock
                      | None -> ())
                    (fun () ->
                      Batch.process ~cancel ?warm ~members ~obs ~parent:jspan entry.spec
                        ~enqueued_at:entry.enqueued_at ())
                with
                | r -> (r, None)
                | exception e ->
                    ( synthesized_result entry.spec (Job.Unknown Job.Budget)
                        ~queue_wait_s:(Unix.gettimeofday () -. entry.enqueued_at),
                      Some (Printexc.to_string e) )
              in
              if traced then begin
                Obs.Span.add_attr jspan "outcome" (Job.outcome_label result.Batch.outcome);
                Obs.Span.stop jspan;
                Obs.Metrics.incr obs
                  (Obs.Metrics.labelled "jobs_total"
                     [ ("outcome", Job.outcome_label result.Batch.outcome) ])
              end;
              let completion =
                {
                  client = entry.e_client;
                  conn = entry.e_conn;
                  job_id = entry.e_job_id;
                  result;
                  error;
                }
              in
              Mutex.lock comp_mutex;
              d.comp_queue <- completion :: d.comp_queue;
              Mutex.unlock comp_mutex;
              on_complete ());
        queue = Jobq.create ~capacity:config.queue_capacity;
        quota = Quota.create ~limit:config.per_client;
        cancel = Atomic.make false;
        comp_mutex;
        comp_queue = [];
        drained = [];
        running = 0;
        draining = false;
        counters = { accepted = 0; completed = 0; cancelled_queued = 0; cancelled_running = 0 };
        sessions = Hashtbl.create 8;
      }
  in
  Lazy.force t

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
          Parallel.Pool.submit t.pool entry;
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
      | Some s -> Some s
      | None when Hashtbl.length t.sessions >= max_sessions -> None
      | None ->
          let cache =
            (* see the [session] type: only shareable for a solo hybrid
               member on the default grid (the graph is then the one
               physical value every solve uses) *)
            if
              t.config.grid = 16
              && (t.config.solver = "hybrid" || t.config.solver = "hybrid-noisy")
            then
              Some
                (Hyqsat.Frontend.create_cache
                   Hyqsat.Hybrid_solver.default_config.Hyqsat.Hybrid_solver.graph)
            else None
          in
          let s =
            {
              s_warm = Batch.Warm.create ();
              s_cache_lock = Mutex.create ();
              s_cache = cache;
            }
          in
          Hashtbl.add t.sessions key s;
          Some s)

let submit t ~client ~conn (js : Protocol.job_spec) =
  if t.draining then
    Rejected { code = "draining"; reason = "server is shutting down"; retry_after_s = None }
  else
    let parse_reject what e =
      Rejected
        {
          code = "parse";
          reason = Printf.sprintf "%s: %s" what (Printexc.to_string e);
          retry_after_s = None;
        }
    in
    let seed =
      match js.Protocol.seed with
      | Some s -> s
      | None -> t.config.seed + (101 * js.Protocol.id)
    in
    let spec_result =
      match js.Protocol.format with
      | Some "wcnf" -> (
          match Sat.Wcnf.parse_string js.Protocol.dimacs with
          | exception e -> Error (parse_reject "WDIMACS" e)
          | w ->
              Ok
                (Job.optimize ~name:js.Protocol.name ~gap_limit:(max 0 js.Protocol.gap_limit)
                   ~certify:js.Protocol.certify ?timeout_s:js.Protocol.timeout_s
                   ~max_iterations:js.Protocol.max_iterations
                   ~retries:(max 0 js.Protocol.retries) ~seed ~id:js.Protocol.id w))
      | Some other ->
          Error
            (Rejected
               {
                 code = "parse";
                 reason = Printf.sprintf "unknown format %S (supported: \"wcnf\")" other;
                 retry_after_s = None;
               })
      | None -> (
          match Sat.Dimacs.parse_string js.Protocol.dimacs with
          | exception e -> Error (parse_reject "DIMACS" e)
          | formula ->
              Ok
                (Job.make ~name:js.Protocol.name ~certify:js.Protocol.certify
                   ?timeout_s:js.Protocol.timeout_s
                   ~max_iterations:js.Protocol.max_iterations
                   ~retries:(max 0 js.Protocol.retries) ~seed ~id:js.Protocol.id formula))
    in
    match spec_result with
    | Error rejection -> rejection
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
              e_session = session_for t ~client js.Protocol.session;
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
              synthesized_result entry.spec (Job.Unknown Job.Cancelled)
                ~queue_wait_s:(now -. entry.enqueued_at);
            error = None;
          }
        in
        record_retirement t c ~was_running:false;
        t.drained <- c :: t.drained)
      dropped
  end

let cancel_running t = Atomic.set t.cancel true

let shutdown t = Parallel.Pool.shutdown t.pool
