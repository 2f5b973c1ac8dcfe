(* Shared helpers for the experiment harness. *)

type ctx = {
  scale : Workload.Spec.scale;
  seed : int;
  problems : int; (* instances per benchmark *)
  trace : string option; (* JSONL trace output for experiments that support it *)
  fault_rate : float; (* QA fault-injection rate for experiments that support it *)
}

let default_ctx = { scale = `Small; seed = 1; problems = 3; trace = None; fault_rate = 0. }

let rng_of ctx salt = Stats.Rng.create ~seed:(ctx.seed + (salt * 7919))

let header title paper_claim =
  Printf.printf "\n==== %s ====\n" title;
  Printf.printf "paper: %s\n\n" paper_claim

let hr () = print_endline (String.make 78 '-')

(* wall-clock of a thunk, in seconds *)
let wall f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

(* median (NaN for an empty list): the right estimator when comparing two
   measured paths (e.g. wire vs direct) — the min of each path can come
   from different machine states and their difference go negative *)
let median = function
  | [] -> Float.nan
  | xs -> Baselines.Descriptive.percentile (Array.of_list xs) 50.

(* committed BENCH_*.json files live at the repo root (nearest ancestor
   with a dune-project), wherever the bench was launched from *)
let out_path name =
  let rec up d =
    if Sys.file_exists (Filename.concat d "dune-project") then Some d
    else
      let parent = Filename.dirname d in
      if parent = d then None else up parent
  in
  match up (Sys.getcwd ()) with None -> name | Some root -> Filename.concat root name

(* a measured value for a BENCH_*.json row, rounded to four significant
   digits: timings on a shared machine carry no more than that *)
let num x = Json.Num (float_of_string (Printf.sprintf "%.4g" x))

(* Writes BENCH_<name>.json at the repo root: the shared schema tag, the
   experiment name and the machine it ran on, then the experiment's own
   fields. *)
let write_json ctx name fields =
  let env =
    Json.Obj
      [
        ("cores", Int (Domain.recommended_domain_count ()));
        ("ocaml", Str Sys.ocaml_version);
        ("scale", Str (match ctx.scale with `Paper -> "paper" | `Small -> "small"));
      ]
  in
  let doc =
    Json.Obj (("schema", Str "hyqsat/bench/v2") :: ("bench", Str name) :: ("env", env) :: fields)
  in
  let path = out_path ("BENCH_" ^ name ^ ".json") in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string doc ^ "\n"));
  Printf.printf "wrote %s\n" path

(* Bechamel micro-benchmark: returns estimated ns/run *)
let bechamel_ns ?(quota_s = 0.25) name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~quota:(Time.second quota_s) ~stabilize:false () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Bechamel.Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  match Analyze.OLS.estimates (Hashtbl.find results name) with
  | Some (est :: _) -> est
  | _ -> Float.nan

let geomean xs = Baselines.Descriptive.geomean (Array.of_list xs)
let mean xs = Baselines.Descriptive.mean (Array.of_list xs)
let fmin xs = Baselines.Descriptive.min (Array.of_list xs)
let fmax xs = Baselines.Descriptive.max (Array.of_list xs)

let is_sat = function Cdcl.Solver.Sat _ -> true | _ -> false

(* reduction ratio, guarding zero denominators *)
let ratio a b = float_of_int a /. float_of_int (max 1 b)
