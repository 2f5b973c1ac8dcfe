type report = {
  accepted : int;
  completed : int;
  cancelled_queued : int;
  cancelled_running : int;
  wall_s : float;
}

let cancelled r = r.cancelled_queued + r.cancelled_running

let pp ppf r =
  Format.fprintf ppf "drained: %d accepted, %d completed, %d cancelled (%d queued, %d running) in %.2fs"
    r.accepted r.completed (cancelled r) r.cancelled_queued r.cancelled_running r.wall_s

let to_json_string r =
  Json.(
    to_string
      (Obj
         [
           ("schema_version", Int Service.Telemetry.schema_version);
           ("kind", Str "drain_report");
           ("accepted", Int r.accepted);
           ("completed", Int r.completed);
           ("cancelled_queued", Int r.cancelled_queued);
           ("cancelled_running", Int r.cancelled_running);
           ("wall_s", Num r.wall_s);
         ]))

let install_stop_handlers () =
  let stop = Atomic.make false in
  let handler _ =
    if Atomic.exchange stop true then exit 130 (* second signal: give up on grace *)
  in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle handler))
    [ Sys.sigterm; Sys.sigint ];
  stop
