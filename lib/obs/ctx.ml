type span_record = {
  id : int;
  parent : int;
  name : string;
  start_s : float;
  dur_s : float;
  attrs : (string * string) list;
}

type histogram = {
  bounds : float array;
  counts : int array;
  mutable sum : float;
  mutable observations : int;
}

type metric =
  | Counter of { mutable count : float }
  | Gauge of { mutable value : float }
  | Histogram of histogram

type sink = {
  on_span : span_record -> unit;
  on_metrics : (string * metric) list -> unit;
  on_close : unit -> unit;
}

type t = {
  disabled : bool;
  clock : unit -> float;
  mutex : Mutex.t;
  epoch : float;
  mutable last : float; (* monotonic clamp; protected by [mutex] *)
  next_span : int Atomic.t;
  metrics : (string, metric) Hashtbl.t;
  mutable sinks : sink list;
  mutable closed : bool;
}

let null =
  {
    disabled = true;
    clock = (fun () -> 0.0);
    mutex = Mutex.create ();
    epoch = 0.0;
    last = 0.0;
    next_span = Atomic.make 1;
    metrics = Hashtbl.create 1;
    sinks = [];
    closed = true;
  }

let is_null t = t == null

let create ?(clock = Unix.gettimeofday) () =
  let epoch = clock () in
  {
    disabled = false;
    clock;
    mutex = Mutex.create ();
    epoch;
    last = epoch;
    next_span = Atomic.make 1;
    metrics = Hashtbl.create 64;
    sinks = [];
    closed = false;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let now t =
  if is_null t then 0.0
  else
    with_lock t (fun () ->
        let raw = t.clock () in
        if raw > t.last then t.last <- raw;
        t.last -. t.epoch)

let attach t sink =
  if not (is_null t) then with_lock t (fun () -> t.sinks <- t.sinks @ [ sink ])

let detach t sink =
  if not (is_null t) then
    with_lock t (fun () -> t.sinks <- List.filter (fun s -> s != sink) t.sinks)

let next_span_id t = Atomic.fetch_and_add t.next_span 1

let emit_span t r =
  if not (is_null t) then
    with_lock t (fun () ->
        if not t.closed then List.iter (fun s -> s.on_span r) t.sinks)

(* 1-2-5 series across decades 1e-6 .. 1e8: covers sub-microsecond
   durations up to hours, and small-integer sizes up to 1e8. *)
let default_buckets =
  Array.concat
    (List.map
       (fun e ->
         let d = 10.0 ** float_of_int e in
         [| 1.0 *. d; 2.0 *. d; 5.0 *. d |])
       (List.init 15 (fun i -> i - 6)))

let counter_add t name by =
  if not (is_null t) then
    with_lock t (fun () ->
        match Hashtbl.find_opt t.metrics name with
        | Some (Counter c) -> c.count <- c.count +. by
        | Some _ -> invalid_arg ("Obs: metric is not a counter: " ^ name)
        | None -> Hashtbl.replace t.metrics name (Counter { count = by }))

let gauge_set t name v =
  if not (is_null t) then
    with_lock t (fun () ->
        match Hashtbl.find_opt t.metrics name with
        | Some (Gauge g) -> g.value <- v
        | Some _ -> invalid_arg ("Obs: metric is not a gauge: " ^ name)
        | None -> Hashtbl.replace t.metrics name (Gauge { value = v }))

let bucket_index bounds v =
  (* first bound >= v (bounds are inclusive upper edges); overflow past the
     end *)
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && v > bounds.(!i) do
    incr i
  done;
  !i

let histogram_observe t ?(bounds = default_buckets) name v =
  if not (is_null t) then
    with_lock t (fun () ->
        let h =
          match Hashtbl.find_opt t.metrics name with
          | Some (Histogram h) -> h
          | Some _ -> invalid_arg ("Obs: metric is not a histogram: " ^ name)
          | None ->
              let h =
                {
                  bounds;
                  counts = Array.make (Array.length bounds + 1) 0;
                  sum = 0.0;
                  observations = 0;
                }
              in
              Hashtbl.replace t.metrics name (Histogram h);
              h
        in
        let i = bucket_index h.bounds v in
        h.counts.(i) <- h.counts.(i) + 1;
        h.sum <- h.sum +. v;
        h.observations <- h.observations + 1)

let snapshot t =
  if is_null t then []
  else
    let xs =
      with_lock t (fun () ->
          Hashtbl.fold
            (fun name m acc ->
              let copy =
                match m with
                | Counter c -> Counter { count = c.count }
                | Gauge g -> Gauge { value = g.value }
                | Histogram h -> Histogram { h with counts = Array.copy h.counts }
              in
              (name, copy) :: acc)
            t.metrics [])
    in
    List.sort (fun (a, _) (b, _) -> compare a b) xs

let close t =
  if not (is_null t) then begin
    let sinks =
      with_lock t (fun () ->
          if t.closed then []
          else begin
            t.closed <- true;
            t.sinks
          end)
    in
    if sinks <> [] then begin
      let ms = snapshot t in
      List.iter (fun s -> s.on_metrics ms) sinks;
      List.iter (fun s -> s.on_close ()) sinks
    end
  end
