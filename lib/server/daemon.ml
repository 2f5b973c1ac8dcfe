module P = Protocol

type config = {
  unix_socket : string option;
  tcp_port : int option;
  metrics_port : int option;
  dispatch : Dispatch.config;
}

let default_config =
  {
    unix_socket = None;
    tcp_port = None;
    metrics_port = None;
    dispatch = Dispatch.default_config;
  }

(* a subscriber with more unsent output than this gets its events dropped *)
let events_backlog_bytes = 256 * 1024

(* a protocol connection with more unsent output than this is not read
   until its client drains it: every request still gets its reply, but a
   client that never reads cannot grow the server's buffers without bound *)
let output_backlog_bytes = 1024 * 1024

(* protocol plus HTTP connections served at once.  [Unix.select] refuses a
   descriptor at or above FD_SETSIZE (1024), so a client past this many is
   accepted and closed at once instead of growing the select sets *)
let max_connections = 256

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
  kind : [ `Proto of Codec.decoder | `Http of Buffer.t ];  (* with its input state *)
  out : Codec.writer;  (* framed replies, or one raw HTTP response *)
  mutable client : string;
  mutable subscribed : bool;
  mutable closing : bool;  (* close once output drains *)
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* a listening socket, closed again if [bind] or [listen] fails; the
   error then names the address as [label] *)
let listen domain addr ~label =
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  try
    if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd addr;
    Unix.listen fd 16;
    fd
  with Unix.Unix_error (e, fn, _) ->
    close_quietly fd;
    raise (Unix.Unix_error (e, fn, label))

(* a socket some process still accepts on is refused as [EADDRINUSE]; only
   a stale one, whose connect is refused, is unlinked first *)
let listen_unix path =
  (if Sys.file_exists path then
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     match Fun.protect ~finally:(fun () -> close_quietly probe) (fun () ->
               Unix.set_nonblock probe;
               Unix.connect probe (Unix.ADDR_UNIX path))
     with
     | () | (exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)) ->
         raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
     | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> Unix.unlink path
     | exception Unix.Unix_error _ -> ());
  listen Unix.PF_UNIX (Unix.ADDR_UNIX path) ~label:path

let listen_tcp port =
  listen Unix.PF_INET
    (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    ~label:(Printf.sprintf "127.0.0.1:%d" port)

(* the port a TCP listener got (0 for a Unix socket) *)
let bound_port fd = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0

let run ?(obs = Obs.Ctx.null) ?(stop = Atomic.make false) ?(on_ready = fun _ -> ())
    (config : config) =
  if config.unix_socket = None && config.tcp_port = None && config.metrics_port = None then
    invalid_arg "Daemon.run: no listener configured";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());

  (* Each resource is freed by the [Fun.protect] that follows it, so on
     every exit — a drain, a failed bind, a raising [on_ready] or loop —
     they go in reverse order: sockets, span tap, workers, self-pipe. *)

  (* self-pipe: worker domains and the span tap wake the select *)
  let pipe_r, pipe_w = Unix.pipe () in
  Fun.protect ~finally:(fun () ->
      close_quietly pipe_r;
      close_quietly pipe_w)
  @@ fun () ->
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let wake () = try ignore (Unix.write pipe_w (Bytes.make 1 '!') 0 1) with _ -> () in

  let dispatch = Dispatch.create ~obs ~on_complete:wake config.dispatch in
  (* after a drain the cancel finds nothing running; after a raise it
     stops the running jobs instead of waiting for them *)
  Fun.protect ~finally:(fun () ->
      Dispatch.cancel_running dispatch;
      Dispatch.shutdown dispatch)
  @@ fun () ->

  (* live span tap: a sink doing a cheap append under the ctx mutex,
     fanned out to subscribers from the event loop *)
  let subscribers = Atomic.make 0 in
  let ev_mutex = Mutex.create () in
  let ev_queue = ref [] in
  let tap =
    {
      Obs.Ctx.on_span =
        (fun r ->
          if Atomic.get subscribers > 0 && streamed_span r.Obs.Ctx.name then begin
            Mutex.lock ev_mutex;
            ev_queue := r :: !ev_queue;
            Mutex.unlock ev_mutex;
            wake ()
          end);
      on_metrics = ignore;
      on_close = ignore;
    }
  in
  Obs.Ctx.attach obs tap;
  Fun.protect ~finally:(fun () -> Obs.Ctx.detach obs tap) @@ fun () ->

  let listeners = ref [] in
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  (* the socket file this run bound, the only one its teardown removes *)
  let bound_path = ref None in
  Fun.protect ~finally:(fun () ->
      Hashtbl.iter (fun _ c -> close_quietly c.fd) conns;
      List.iter (fun (_, fd) -> close_quietly fd) !listeners;
      Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !bound_path)
  @@ fun () ->
  (* owned by the teardown above as soon as it is bound; its TCP port *)
  let listen_on kind fd =
    listeners := !listeners @ [ (kind, fd) ];
    bound_port fd
  in
  Option.iter
    (fun p ->
      ignore (listen_on `Proto (listen_unix p));
      bound_path := Some p)
    config.unix_socket;
  let tcp_bound = Option.map (fun p -> listen_on `Proto (listen_tcp p)) config.tcp_port in
  let metrics_bound = Option.map (fun p -> listen_on `Http (listen_tcp p)) config.metrics_port in
  on_ready
    { r_unix_socket = config.unix_socket; r_tcp_port = tcp_bound; r_metrics_port = metrics_bound };

  let next_key = ref 0 in
  let read_buf = Bytes.create 65536 in
  let live () = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in

  let close_conn c =
    if c.subscribed then Atomic.decr subscribers;
    Hashtbl.remove conns c.key;
    close_quietly c.fd
  in
  let send c msg = Codec.push c.out (Codec.frame (P.encode_server msg)) in
  let metric name = Obs.Metrics.incr obs name in

  let accept_on kind lfd =
    match Unix.accept lfd with
    | exception
        Unix.Unix_error
          ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED | Unix.EMFILE
            | Unix.ENFILE ),
            _,
            _ ) ->
        (* nothing to accept now; out of descriptors, the client stays in
           the listen backlog until a connection closes *)
        ()
    | fd, _addr when Hashtbl.length conns >= max_connections -> close_quietly fd
    | fd, _addr ->
        Unix.set_nonblock fd;
        incr next_key;
        let key = !next_key in
        let kind =
          match kind with `Proto -> `Proto (Codec.decoder ()) | `Http -> `Http (Buffer.create 256)
        in
        Hashtbl.replace conns key
          {
            fd;
            key;
            kind;
            out = Codec.writer ();
            client = Printf.sprintf "conn-%d" key;
            subscribed = false;
            closing = false;
          };
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

  let handle_proto_input c dec =
    let rec frames () =
      match Codec.next dec with
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
        | `Proto dec ->
            Codec.feed dec ~len:n read_buf;
            handle_proto_input c dec
        | `Http _ when c.closing -> () (* answered: the rest of the request is dropped *)
        | `Http request ->
            Option.iter
              (fun response ->
                Codec.push c.out response;
                c.closing <- true)
              (Metrics_http.on_read ~metrics:metrics_body request read_buf n))
  in

  let handle_writable c =
    try
      let chunk = Codec.to_write c.out ~max:65536 () in
      if chunk <> "" then
        Codec.advance c.out (Unix.write_substring c.fd chunk 0 (String.length chunk))
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
          if c.subscribed && not c.closing then
            List.iter
              (fun (r : Obs.Ctx.span_record) ->
                if Codec.pending c.out > events_backlog_bytes then
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

  while not (!draining && Dispatch.idle dispatch) do
    if Atomic.get stop && not !draining then begin
      draining := true;
      drain_t0 := Unix.gettimeofday ();
      grace_deadline := !drain_t0 +. config.dispatch.Dispatch.grace_s;
      let proto, http = List.partition (fun (kind, _) -> kind = `Proto) !listeners in
      List.iter (fun (_, fd) -> close_quietly fd) proto;
      listeners := http;
      List.iter deliver_completion (Dispatch.begin_drain dispatch)
    end;
    if Unix.gettimeofday () > !grace_deadline then begin
      grace_deadline := infinity;
      Dispatch.cancel_running dispatch
    end;
    let reads =
      (pipe_r :: List.map snd !listeners)
      @ Hashtbl.fold
          (fun _ c acc -> if Codec.pending c.out > output_backlog_bytes then acc else c.fd :: acc)
          conns []
    in
    let writes =
      Hashtbl.fold (fun _ c acc -> if Codec.pending c.out > 0 then c.fd :: acc else acc) conns []
    in
    let timeout = if !draining then 0.02 else 0.2 in
    let readable, writable, _ =
      try Unix.select reads writes [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (* wake-up bytes left over keep the pipe readable for the next select *)
    if List.mem pipe_r readable then
      (try ignore (Unix.read pipe_r read_buf 0 (Bytes.length read_buf))
       with Unix.Unix_error _ -> ());
    List.iter (fun (kind, lfd) -> if List.mem lfd readable then accept_on kind lfd) !listeners;
    List.iter (fun c -> if List.mem c.fd readable then handle_readable c) (live ());
    List.iter deliver_completion (Dispatch.take_completions dispatch);
    deliver_events ();
    let live = live () in
    List.iter (fun c -> if List.mem c.fd writable then handle_writable c) live;
    List.iter (fun c -> if c.closing && Codec.pending c.out = 0 then close_conn c) live
  done;
  let report =
    { (Dispatch.counters dispatch) with Drain.wall_s = Unix.gettimeofday () -. !drain_t0 }
  in

  (* goodbye: tell every client what the drain did, with a short best-effort
     flush — a stuck client must not block shutdown.  The flush walks a
     snapshot, since a failed write closes its connection *)
  let bye =
    P.Drained
      {
        accepted = report.Drain.accepted;
        completed = report.Drain.completed;
        cancelled = Drain.cancelled report;
      }
  in
  List.iter (fun c -> match c.kind with `Proto _ -> send c bye | `Http _ -> ()) (live ());
  let flush_deadline = Unix.gettimeofday () +. 1.0 in
  let rec flush () =
    let pending = List.filter (fun c -> Codec.pending c.out > 0) (live ()) in
    if pending <> [] && Unix.gettimeofday () < flush_deadline then
      match Unix.select [] (List.map (fun c -> c.fd) pending) [] 0.05 with
      | _, writable, _ ->
          List.iter (fun c -> if List.mem c.fd writable then handle_writable c) pending;
          flush ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush ()
  in
  flush ();
  report
