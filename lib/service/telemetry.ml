type record = {
  job_id : int;
  job_name : string;
  outcome : string;
  verified : string;
  winner : string;
  attempts : int;
  queue_wait_s : float;
  solve_time_s : float;
  iterations : int;
  qa_calls : int;
  qa_failures : int;
  degraded : int;
  strategy_uses : int array;
  warm_start : bool;
  reused_clauses : int;
  cost : int;
  lower_bound : int;
}

type summary = {
  jobs : int;
  sat : int;
  unsat : int;
  unknown : int;
  workers : int;
  wall_time_s : float;
  total_solve_s : float;
  max_solve_s : float;
  mean_queue_wait_s : float;
  throughput_jps : float;
}

let summarize ~workers ~wall_time_s records =
  let count p = List.length (List.filter p records) in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. records in
  let jobs = List.length records in
  {
    jobs;
    sat = count (fun r -> r.outcome = "sat");
    unsat = count (fun r -> r.outcome = "unsat");
    unknown = count (fun r -> String.length r.outcome >= 7 && String.sub r.outcome 0 7 = "unknown");
    workers;
    wall_time_s;
    total_solve_s = sum (fun r -> r.solve_time_s);
    max_solve_s = List.fold_left (fun acc r -> Float.max acc r.solve_time_s) 0. records;
    mean_queue_wait_s = (if jobs = 0 then 0. else sum (fun r -> r.queue_wait_s) /. float_of_int jobs);
    throughput_jps = (if wall_time_s > 0. then float_of_int jobs /. wall_time_s else 0.);
  }

(* ------------------------------------------------------------------ *)
(* JSON documents *)

open Json

let json_of_record r =
  Obj
    [
      ("job_id", Int r.job_id);
      ("job_name", Str r.job_name);
      ("outcome", Str r.outcome);
      ("verified", Str r.verified);
      ("winner", Str r.winner);
      ("attempts", Int r.attempts);
      ("queue_wait_s", Num r.queue_wait_s);
      ("solve_time_s", Num r.solve_time_s);
      ("iterations", Int r.iterations);
      ("qa_calls", Int r.qa_calls);
      ("qa_failures", Int r.qa_failures);
      ("degraded", Int r.degraded);
      ("strategy_uses", Arr (Array.to_list (Array.map (fun k -> Int k) r.strategy_uses)));
      ("warm_start", Bool r.warm_start);
      ("reused_clauses", Int r.reused_clauses);
      ("cost", Int r.cost);
      ("lower_bound", Int r.lower_bound);
    ]

let json_of_summary s =
  Obj
    [
      ("jobs", Int s.jobs);
      ("sat", Int s.sat);
      ("unsat", Int s.unsat);
      ("unknown", Int s.unknown);
      ("workers", Int s.workers);
      ("wall_time_s", Num s.wall_time_s);
      ("total_solve_s", Num s.total_solve_s);
      ("max_solve_s", Num s.max_solve_s);
      ("mean_queue_wait_s", Num s.mean_queue_wait_s);
      ("throughput_jps", Num s.throughput_jps);
    ]

(* bumped whenever the document shape changes; version 1 documents had no
   [schema_version] field, so the parser treats absence as 1; version 3
   added the [qa_failures]/[degraded] record fields (absent = 0 on read,
   so v2 documents still parse); version 4 added [warm_start]/
   [reused_clauses] (absent = false/0 on read, so v3 documents still
   parse); version 5 added the optimisation fields [cost]/[lower_bound]
   (absent = -1 on read — the decision-job sentinel — so v4 documents
   still parse) *)
let schema_version = 5

let to_json_string summary records =
  Json.to_string
    (Obj
       [
         ("schema_version", Int schema_version);
         ("summary", json_of_summary summary);
         ("jobs", Arr (List.map json_of_record records));
       ])

let record_of_json j =
  let kvs = as_obj j in
  let with_default k read default = Option.value ~default (opt_field kvs k read) in
  {
    job_id = as_int (field kvs "job_id");
    job_name = as_str (field kvs "job_name");
    outcome = as_str (field kvs "outcome");
    verified = with_default "verified" as_str "";
    winner = as_str (field kvs "winner");
    attempts = as_int (field kvs "attempts");
    queue_wait_s = as_num (field kvs "queue_wait_s");
    solve_time_s = as_num (field kvs "solve_time_s");
    iterations = as_int (field kvs "iterations");
    qa_calls = as_int (field kvs "qa_calls");
    qa_failures = with_default "qa_failures" as_int 0;
    degraded = with_default "degraded" as_int 0;
    strategy_uses = Array.of_list (List.map as_int (as_arr (field kvs "strategy_uses")));
    warm_start = with_default "warm_start" as_bool false;
    reused_clauses = with_default "reused_clauses" as_int 0;
    cost = with_default "cost" as_int (-1);
    lower_bound = with_default "lower_bound" as_int (-1);
  }

let summary_of_json j =
  let kvs = as_obj j in
  {
    jobs = as_int (field kvs "jobs");
    sat = as_int (field kvs "sat");
    unsat = as_int (field kvs "unsat");
    unknown = as_int (field kvs "unknown");
    workers = as_int (field kvs "workers");
    wall_time_s = as_num (field kvs "wall_time_s");
    total_solve_s = as_num (field kvs "total_solve_s");
    max_solve_s = as_num (field kvs "max_solve_s");
    mean_queue_wait_s = as_num (field kvs "mean_queue_wait_s");
    throughput_jps = as_num (field kvs "throughput_jps");
  }

let check_schema_version kvs =
  match opt_field kvs "schema_version" as_int with
  | None -> () (* version 1: predates the field *)
  | Some v ->
      if v < 1 || v > schema_version then
        raise
          (Schema_error
             (Printf.sprintf "unsupported schema_version %d (supported: 1..%d)" v
                schema_version))

let of_json_string s =
  Json.decode s (fun j ->
      let kvs = as_obj j in
      check_schema_version kvs;
      (summary_of_json (field kvs "summary"), List.map record_of_json (as_arr (field kvs "jobs"))))

(* ------------------------------------------------------------------ *)
(* tables *)

let pp_table fmt records =
  Format.fprintf fmt "%-4s %-28s %-16s %-8s %-12s %3s %9s %9s %10s %5s %5s %5s %5s %6s %6s@."
    "id" "job" "outcome" "verified" "winner" "try" "wait(ms)" "time(ms)" "iters" "qa"
    "qafail" "degr" "warm" "cost" "lb";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-4d %-28s %-16s %-8s %-12s %3d %9.2f %9.2f %10d %5d %5d %5d %5s %6s %6s@."
        r.job_id
        (if String.length r.job_name > 28 then String.sub r.job_name 0 28 else r.job_name)
        r.outcome
        (match r.verified with "" -> "-" | v -> v)
        r.winner r.attempts
        (r.queue_wait_s *. 1000.)
        (r.solve_time_s *. 1000.)
        r.iterations r.qa_calls r.qa_failures r.degraded
        (if r.warm_start then string_of_int r.reused_clauses else "-")
        (if r.cost >= 0 then string_of_int r.cost else "-")
        (if r.cost >= 0 then string_of_int r.lower_bound else "-"))
    records

let pp_summary fmt s =
  Format.fprintf fmt
    "jobs %d (sat %d / unsat %d / unknown %d) · workers %d · wall %.3f s · cpu %.3f s · max job %.3f s · mean wait %.3f ms · %.2f jobs/s@."
    s.jobs s.sat s.unsat s.unknown s.workers s.wall_time_s s.total_solve_s s.max_solve_s
    (s.mean_queue_wait_s *. 1000.)
    s.throughput_jps
