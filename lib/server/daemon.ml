module P = Protocol

type config = {
  unix_socket : string option;
  tcp_port : int option;
  metrics_port : int option;
  dispatch : Dispatch.config;
  max_frame : int;
  events_backlog_bytes : int;
}

let default_config =
  {
    unix_socket = None;
    tcp_port = None;
    metrics_port = None;
    dispatch = Dispatch.default_config;
    max_frame = Codec.default_max_frame;
    events_backlog_bytes = 256 * 1024;
  }

type ready = {
  r_unix_socket : string option;
  r_tcp_port : int option;
  r_metrics_port : int option;
}

(* spans worth a wire event; solver internals stay local *)
let streamed_span = function "job" | "attempt" | "race" | "member" -> true | _ -> false

type conn = {
  fd : Unix.file_descr;
  key : int;
  kind : [ `Proto | `Http ];
  dec : Codec.decoder;
  wr : Codec.writer;  (* protocol connections *)
  http_in : Buffer.t;
  mutable http_out : string;  (* raw bytes for HTTP connections *)
  mutable http_off : int;
  mutable client : string;
  mutable subscribed : bool;
  mutable closing : bool;  (* close once output drains *)
}

let conn_pending c =
  match c.kind with
  | `Proto -> Codec.pending c.wr
  | `Http -> String.length c.http_out - c.http_off

let listen_unix path =
  if Sys.file_exists path then Sys.remove path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 16;
  let bound =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  (fd, bound)

let run ?(obs = Obs.Ctx.null) ?(stop = Atomic.make false) ?(on_ready = fun _ -> ())
    (config : config) =
  if config.unix_socket = None && config.tcp_port = None && config.metrics_port = None then
    invalid_arg "Daemon.run: no listener configured";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let traced = not (Obs.Ctx.is_null obs) in

  (* self-pipe: worker domains and the span listener wake the select *)
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let wake () = try ignore (Unix.write pipe_w (Bytes.make 1 '!') 0 1) with _ -> () in

  let dispatch = Dispatch.create ~obs ~on_complete:wake config.dispatch in

  (* live span tap: cheap append under the ctx mutex, fanned out to
     subscribers from the event loop *)
  let subscribers = Atomic.make 0 in
  let ev_mutex = Mutex.create () in
  let ev_queue = ref [] in
  let listener_token =
    Obs.Ctx.subscribe obs (fun (r : Obs.Ctx.span_record) ->
        if Atomic.get subscribers > 0 && streamed_span r.Obs.Ctx.name then begin
          Mutex.lock ev_mutex;
          ev_queue := r :: !ev_queue;
          Mutex.unlock ev_mutex;
          wake ()
        end)
  in

  let proto_listeners = ref [] in
  let http_listeners = ref [] in
  Option.iter (fun p -> proto_listeners := listen_unix p :: !proto_listeners) config.unix_socket;
  let tcp_bound =
    Option.map
      (fun p ->
        let fd, bound = listen_tcp p in
        proto_listeners := fd :: !proto_listeners;
        bound)
      config.tcp_port
  in
  let metrics_bound =
    Option.map
      (fun p ->
        let fd, bound = listen_tcp p in
        http_listeners := fd :: !http_listeners;
        bound)
      config.metrics_port
  in
  on_ready
    { r_unix_socket = config.unix_socket; r_tcp_port = tcp_bound; r_metrics_port = metrics_bound };

  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_key = ref 0 in
  let read_buf = Bytes.create 65536 in

  let close_conn c =
    if c.subscribed then Atomic.decr subscribers;
    Hashtbl.remove conns c.key;
    (try Unix.close c.fd with Unix.Unix_error _ -> ())
  in
  let send c msg = Codec.push c.wr (P.encode_server msg) in
  let metric name = if traced then Obs.Metrics.incr obs name in

  let accept_on kind lfd =
    match Unix.accept lfd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | fd, _addr ->
        Unix.set_nonblock fd;
        incr next_key;
        let key = !next_key in
        let c =
          {
            fd;
            key;
            kind;
            dec = Codec.decoder ~max_frame:config.max_frame ();
            wr = Codec.writer ();
            http_in = Buffer.create 256;
            http_out = "";
            http_off = 0;
            client = Printf.sprintf "conn-%d" key;
            subscribed = false;
            closing = false;
          }
        in
        Hashtbl.replace conns key c;
        metric "connections_total"
  in

  let handle_msg c = function
    | P.Hello { client; proto } ->
        if proto > P.proto_version then begin
          send c
            (P.Error_msg
               {
                 code = "unsupported";
                 reason =
                   Printf.sprintf "proto %d newer than server's %d" proto P.proto_version;
               });
          c.closing <- true
        end
        else begin
          c.client <- client;
          send c
            (P.Welcome
               {
                 server = P.server_name;
                 proto = P.proto_version;
                 schema = Service.Telemetry.schema_version;
               })
        end
    | P.Submit spec -> (
        metric "submissions_total";
        match Dispatch.submit dispatch ~client:c.client ~conn:c.key spec with
        | Dispatch.Accepted { position; queued } ->
            send c (P.Accepted { id = spec.P.id; position; queued })
        | Dispatch.Rejected { code; reason; retry_after_s } ->
            metric (Obs.Metrics.labelled "rejections_total" [ ("code", code) ]);
            send c (P.Rejected { id = spec.P.id; code; reason; retry_after_s }))
    | P.Subscribe { events } ->
        if events && not c.subscribed then Atomic.incr subscribers
        else if (not events) && c.subscribed then Atomic.decr subscribers;
        c.subscribed <- events
    | P.Ping n -> send c (P.Pong n)
    | P.Bye -> c.closing <- true
  in

  let handle_proto_input c =
    let rec frames () =
      match Codec.next c.dec with
      | Ok None -> ()
      | Ok (Some payload) ->
          (match P.decode_client payload with
          | Ok msg -> handle_msg c msg
          | Error reason ->
              let code =
                if String.length reason >= 11 && String.sub reason 0 11 = "unsupported" then
                  "unsupported"
                else "bad_msg"
              in
              send c (P.Error_msg { code; reason }));
          frames ()
      | Error e ->
          (* the stream has no recoverable frame boundary left: say why,
             then hang up once the error flushes *)
          send c
            (P.Error_msg
               { code = "bad_frame"; reason = Printf.sprintf "framing: %s" (Codec.error_label e) });
          c.closing <- true
    in
    frames ()
  in

  let metrics_body () = Obs.Export.prometheus_string (Obs.Ctx.snapshot obs) in

  let handle_readable c =
    match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn c
    | 0 -> close_conn c
    | n -> (
        match c.kind with
        | `Proto ->
            Codec.feed c.dec ~len:n read_buf;
            handle_proto_input c
        | `Http ->
            Buffer.add_subbytes c.http_in read_buf 0 n;
            if c.http_out = "" && Metrics_http.request_complete (Buffer.contents c.http_in)
            then begin
              c.http_out <-
                Metrics_http.response ~metrics:metrics_body (Buffer.contents c.http_in);
              c.closing <- true
            end)
  in

  let handle_writable c =
    try
      match c.kind with
      | `Proto ->
          let chunk = Codec.to_write c.wr ~max:65536 () in
          if chunk <> "" then begin
            let n = Unix.write_substring c.fd chunk 0 (String.length chunk) in
            Codec.advance c.wr n
          end
      | `Http ->
          let avail = String.length c.http_out - c.http_off in
          if avail > 0 then begin
            let n = Unix.write_substring c.fd c.http_out c.http_off avail in
            c.http_off <- c.http_off + n
          end
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | Unix.Unix_error _ -> close_conn c
  in

  let deliver_completion (comp : Dispatch.completion) =
    metric
      (Obs.Metrics.labelled "results_total"
         [ ("outcome", comp.Dispatch.result.Service.Batch.record.Service.Telemetry.outcome) ]);
    match Hashtbl.find_opt conns comp.Dispatch.conn with
    | None -> () (* client went away; the work is still counted *)
    | Some c ->
        Option.iter
          (fun e -> send c (P.Error_msg { code = "internal"; reason = e }))
          comp.Dispatch.result.Service.Batch.error;
        let model =
          match comp.Dispatch.result.Service.Batch.outcome with
          | Service.Job.Sat m -> Some m
          | _ -> None
        in
        send c
          (P.Result
             {
               id = comp.Dispatch.job_id;
               record = comp.Dispatch.result.Service.Batch.record;
               model;
             })
  in

  let deliver_events () =
    Mutex.lock ev_mutex;
    let evs = List.rev !ev_queue in
    ev_queue := [];
    Mutex.unlock ev_mutex;
    if evs <> [] then
      Hashtbl.iter
        (fun _ c ->
          if c.kind = `Proto && c.subscribed && not c.closing then
            List.iter
              (fun (r : Obs.Ctx.span_record) ->
                if Codec.pending c.wr > config.events_backlog_bytes then
                  metric "events_dropped_total"
                else
                  send c
                    (P.Event
                       {
                         job =
                           Option.bind
                             (List.assoc_opt "id" r.Obs.Ctx.attrs)
                             int_of_string_opt;
                         name = r.Obs.Ctx.name;
                         dur_s = r.Obs.Ctx.dur_s;
                         attrs = r.Obs.Ctx.attrs;
                       }))
              evs)
        conns
  in

  (* ---------------------------------------------------------------- *)
  (* main loop *)
  let draining = ref false in
  let drain_t0 = ref 0. in
  let grace_deadline = ref infinity in
  let cancelled_running = ref false in
  let drained_at = ref 0. in
  let finished = ref false in

  let close_listeners () =
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !proto_listeners;
    proto_listeners := []
  in

  while not !finished do
    if Atomic.get stop && not !draining then begin
      draining := true;
      drain_t0 := Unix.gettimeofday ();
      grace_deadline := !drain_t0 +. config.dispatch.Dispatch.grace_s;
      close_listeners ();
      Dispatch.begin_drain dispatch
    end;
    if !draining && (not !cancelled_running) && Unix.gettimeofday () > !grace_deadline
    then begin
      cancelled_running := true;
      Dispatch.cancel_running dispatch
    end;
    let reads =
      (pipe_r :: !proto_listeners) @ !http_listeners
      @ Hashtbl.fold (fun _ c acc -> c.fd :: acc) conns []
    in
    let writes = Hashtbl.fold (fun _ c acc -> if conn_pending c > 0 then c.fd :: acc else acc) conns [] in
    let timeout = if !draining then 0.02 else 0.2 in
    let readable, writable, _ =
      try Unix.select reads writes [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem pipe_r readable then begin
      let scratch = Bytes.create 256 in
      let rec drain_pipe () =
        match Unix.read pipe_r scratch 0 256 with
        | 256 -> drain_pipe ()
        | _ -> ()
        | exception Unix.Unix_error _ -> ()
      in
      drain_pipe ()
    end;
    List.iter
      (fun lfd -> if List.mem lfd readable then accept_on `Proto lfd)
      !proto_listeners;
    List.iter (fun lfd -> if List.mem lfd readable then accept_on `Http lfd) !http_listeners;
    let live = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
    List.iter (fun c -> if List.mem c.fd readable then handle_readable c) live;
    List.iter deliver_completion (Dispatch.take_completions dispatch);
    deliver_events ();
    let live = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
    List.iter (fun c -> if List.mem c.fd writable then handle_writable c) live;
    List.iter (fun c -> if c.closing && conn_pending c = 0 then close_conn c) live;
    if !draining && Dispatch.idle dispatch then begin
      drained_at := Unix.gettimeofday ();
      finished := true
    end
  done;

  (* goodbye: tell every client what the drain did, with a short best-effort
     flush — a stuck client must not block shutdown *)
  let cs = Dispatch.counters dispatch in
  let bye =
    P.Drained
      {
        accepted = cs.Dispatch.accepted;
        completed = cs.Dispatch.completed;
        cancelled = cs.Dispatch.cancelled_queued + cs.Dispatch.cancelled_running;
      }
  in
  Hashtbl.iter (fun _ c -> if c.kind = `Proto then send c bye) conns;
  let flush_deadline = Unix.gettimeofday () +. 1.0 in
  let rec flush () =
    let pending = Hashtbl.fold (fun _ c acc -> acc + conn_pending c) conns 0 in
    if pending > 0 && Unix.gettimeofday () < flush_deadline then begin
      let writes = Hashtbl.fold (fun _ c acc -> if conn_pending c > 0 then c.fd :: acc else acc) conns [] in
      match Unix.select [] writes [] 0.05 with
      | _, writable, _ ->
          Hashtbl.iter (fun _ c -> if List.mem c.fd writable then handle_writable c) conns;
          flush ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush ()
    end
  in
  flush ();
  Obs.Ctx.unsubscribe obs listener_token;
  Dispatch.shutdown dispatch;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  close_listeners ();
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !http_listeners;
  (try Unix.close pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close pipe_w with Unix.Unix_error _ -> ());
  Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) config.unix_socket;
  {
    Drain.accepted = cs.Dispatch.accepted;
    completed = cs.Dispatch.completed;
    cancelled_queued = cs.Dispatch.cancelled_queued;
    cancelled_running = cs.Dispatch.cancelled_running;
    wall_s = (if !draining then !drained_at -. !drain_t0 else 0.);
  }
