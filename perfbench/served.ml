(* The daemon under test and the closed-loop client that drives it.

   The daemon runs as its own `hyqsat serve` process whenever the CLI
   binary is available, so the load generator never shares a domain lock
   with the daemon's event loop; without the binary it runs on a thread
   of this process, as `bench serve` does, and [mode] says so. *)

module P = Server.Protocol
module Client = Server.Client

type daemon =
  | Process of { pid : int; out : Unix.file_descr }
  | Thread of { stop : bool Atomic.t; thread : Thread.t }

type t = { daemon : daemon; socket : string; client : Client.t }

let mode t = match t.daemon with Process _ -> "process" | Thread _ -> "in-process"

(* relative paths keep the socket name short whatever the checkout path *)
let run_dir = ".perfbench-run"
let counter = ref 0

let fresh_socket () =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  incr counter;
  let path = Printf.sprintf "%s/hq-%d-%d.sock" run_dir (Unix.getpid ()) !counter in
  if Sys.file_exists path then Sys.remove path;
  path

(* the daemon announces its socket on stdout once it is bound *)
let await_ready fd =
  let buf = Bytes.create 4096 in
  let seen = Buffer.create 256 in
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    if String.contains (Buffer.contents seen) '\n' then ()
    else
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then failwith "daemon did not announce its socket";
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> failwith "daemon exited before listening"
          | n ->
              Buffer.add_subbytes seen buf 0 n;
              go ())
  in
  go ()

let spawn_process ~exe ~socket ~workers ~solver ~seed =
  let out, child_out = Unix.pipe ~cloexec:true () in
  let argv =
    [|
      exe; "serve"; "--socket"; socket; "--jobs"; string_of_int workers; "--solver"; solver;
      "--seed"; string_of_int seed; "--queue-capacity"; "64"; "--per-client"; "64";
      "--grace"; "1";
    |]
  in
  let pid = Unix.create_process exe argv Unix.stdin child_out Unix.stderr in
  Unix.close child_out;
  (try await_ready out
   with e ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (Unix.waitpid [] pid);
     Unix.close out;
     raise e);
  Process { pid; out }

let spawn_thread ~socket ~workers ~solver ~seed =
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.unix_socket = Some socket;
      dispatch =
        {
          Server.Dispatch.default_config with
          Server.Dispatch.workers;
          queue_capacity = 64;
          per_client = 64;
          grace_s = 1.;
          solver;
          seed;
        };
    }
  in
  let thread =
    Thread.create
      (fun () -> ignore (Server.Daemon.run ~stop ~on_ready:(fun _ -> Atomic.set ready true) config))
      ()
  in
  while not (Atomic.get ready) do
    Thread.delay 0.001
  done;
  Thread { stop; thread }

let stop_daemon daemon socket =
  (match daemon with
  | Process { pid; out } ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Unix.close out
  | Thread { stop; thread } ->
      Atomic.set stop true;
      Thread.join thread);
  if Sys.file_exists socket then Sys.remove socket

let live : t list ref = ref []

let stop t =
  live := List.filter (fun x -> x != t) !live;
  (try Client.send t.client P.Bye with _ -> ());
  Client.close t.client;
  stop_daemon t.daemon t.socket

(* never leave a daemon behind, whatever path ends the run *)
let () = at_exit (fun () -> List.iter (fun t -> try stop t with _ -> ()) !live)

let start ~exe ~workers ~solver ~seed =
  let socket = fresh_socket () in
  let daemon =
    match exe with
    | Some exe when Sys.file_exists exe -> spawn_process ~exe ~socket ~workers ~solver ~seed
    | _ -> spawn_thread ~socket ~workers ~solver ~seed
  in
  match Client.connect_unix socket with
  | exception e ->
      stop_daemon daemon socket;
      raise e
  | client ->
      let t = { daemon; socket; client } in
      live := t :: !live;
      Client.handshake ~client:"perfbench" t.client;
      t

(* high-water RSS of the daemon (of this process when it runs in-process) *)
let peak_rss_mb t =
  let pid = match t.daemon with Process { pid; _ } -> string_of_int pid | Thread _ -> "self" in
  match Common.proc_status_kb pid "VmHWM:" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> 0.

let spec_of (job : Workloads.job) ~id =
  P.make_job_spec ~name:job.Workloads.name ?format:job.Workloads.format ~certify:true
    ~seed:job.Workloads.seed ~id job.Workloads.text

type reply = {
  job : Workloads.job;
  id : int;
  latency_s : float;  (** Submit sent → Result received *)
  record : Service.Telemetry.record;
  model : bool array option;
}

type loop = {
  replies : reply list;  (** completion order *)
  submitted : int;
  rejected : (int * string) list;  (** wire id, reason *)
  transport : string option;  (** the error that broke the connection *)
  wall_s : float;  (** first submit → last answer *)
}

exception Transport of string

(* Closed loop on one connection: [window] submits outstanding, the next
   one sent as soon as an answer arrives, while [more k] says job number
   [k] (1-based) should still go out.  Job [k] is pool entry
   [(k - 1) mod size], so the pool is cycled in order. *)
let closed_loop t (jobs : Workloads.job array) ~window ~more =
  let size = Array.length jobs in
  let inflight = Hashtbl.create 16 in
  let sent = ref 0 in
  let replies = ref [] in
  let rejected = ref [] in
  let send_next () =
    if more (!sent + 1) then begin
      incr sent;
      let job = jobs.((!sent - 1) mod size) in
      Hashtbl.replace inflight !sent (job, Common.now ());
      Client.send t.client (P.Submit (spec_of job ~id:!sent))
    end
  in
  let t0 = Common.now () in
  for _ = 1 to window do
    send_next ()
  done;
  let transport =
    try
      while Hashtbl.length inflight > 0 do
        match Client.recv ~timeout_s:150. t.client with
        | P.Result { id; record; model } -> (
            let arrived = Common.now () in
            match Hashtbl.find_opt inflight id with
            | None -> raise (Transport (Printf.sprintf "result for unknown job %d" id))
            | Some (job, sent_at) ->
                Hashtbl.remove inflight id;
                replies := { job; id; latency_s = arrived -. sent_at; record; model } :: !replies;
                send_next ())
        | P.Rejected { id; code; reason; _ } ->
            Hashtbl.remove inflight id;
            rejected := (id, code ^ ": " ^ reason) :: !rejected;
            send_next ()
        | P.Accepted _ | P.Event _ | P.Pong _ | P.Welcome _ -> ()
        | P.Drained _ -> raise (Transport "daemon drained mid-run")
        | P.Error_msg { code; reason } -> raise (Transport (code ^ ": " ^ reason))
      done;
      None
    with Client.Protocol_error m | Transport m -> Some m
  in
  {
    replies = List.rev !replies;
    submitted = !sent;
    rejected = List.rev !rejected;
    transport;
    wall_s = Common.now () -. t0;
  }
