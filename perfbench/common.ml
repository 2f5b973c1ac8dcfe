(* Shared helpers: the one monotonic clock every benchmark time comes
   from, order statistics, and the metric list printed as JSON. *)

(* CLOCK_MONOTONIC, in seconds *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* nearest-rank quantile of an unsorted sample, [q] in [0, 1] *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0. then 0. else a /. b

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* all digits, never a non-JSON literal *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value)
           m.unit_)
       ms)

let print_metrics ~title ms =
  Printf.printf "%s\n" title;
  List.iter (fun m -> Printf.printf "  %-34s %16.6f %s\n" m.name m.value m.unit_) ms

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* first line of /proc/<pid>/status starting with [key], in kB *)
let proc_status_kb pid key =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             if String.starts_with ~prefix:key line then
               String.sub line (String.length key) (String.length line - String.length key)
               |> String.trim
               |> String.split_on_char ' '
               |> List.hd |> int_of_string_opt
             else None)
