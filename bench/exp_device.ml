(* Device depth curve (not a paper figure; EXPERIMENTS.md, "Depth of the
   device anneal"): how deep the simulated device must anneal for the
   hybrid loop to see a difference.  Each depth anneals on the device's
   β range and runs the hybrid-sat benchmark family (planted uniform
   3-SAT, n 20–44, ratio 4.3, 150 jobs per seed) the way the daemon solves
   it: [Service.Batch.process] with a hybrid member, certification on.
   Seeds 1–5 rank the depths; seed 7 stays held out for the end-to-end
   check.  Writes BENCH_device.json and exits 1 on any answer that is not
   a certified model.

   A row is within the rule when its mean iterations per job over the
   seeds is within 2% of the deepest row's, no seed is more than 6% above
   the deepest row's on that seed, and its UF-s strategy-1 reduction is no
   lower than the deepest row's (strategy 1 needs a zero energy there). *)

module Batch = Service.Batch
module HS = Hyqsat.Hybrid_solver

let depths = [ 1; 8; 16; 32; 64; 128; 256 ]
let seeds = [ 1; 2; 3; 4; 5 ]
let noisy_seeds = [ 1; 2 ]

(* the device's β range, cut or stretched to [sweeps] *)
let schedule sweeps = { Anneal.Sampler.default_schedule with Anneal.Sampler.sweeps }

(* the hybrid-sat pool of one seed, as the benchmark generates it: sizes
   spread evenly over 20–44 in a scrambled order, each entry followed by
   its solver seed on the same stream, sent as DIMACS text *)
let pool seed =
  let size = 150 in
  let rng = Stats.Rng.create ~seed:((seed * 7919) + 104_729) in
  List.init size (fun idx ->
      let n = 20 + ((idx * 37) mod size * (44 - 20 + 1) / size) in
      let m = int_of_float (Float.ceil (4.3 *. float_of_int n)) in
      let f = Workload.Uniform.generate ~planted:true rng ~num_vars:n ~num_clauses:m in
      let job_seed = Stats.Rng.int rng 1_000_000 in
      Service.Job.make
        ~name:(Printf.sprintf "uf%d-%03d" n idx)
        ~certify:true ~seed:job_seed ~id:idx
        (Sat.Dimacs.parse_string (Sat.Dimacs.to_string f)))

(* the stock "hybrid" / "hybrid-noisy" member (Service.Portfolio) with
   [backend] as its device *)
let member ~backend ~noisy ~seed =
  let base = if noisy then HS.noisy_config else HS.default_config in
  let qa = Service.Job.default_qa in
  let config =
    HS.make_config ~base ~cdcl:(Cdcl.Config.with_proof_logging base.HS.cdcl)
      ~qa_reads:qa.Service.Job.reads ~qa_domains:qa.Service.Job.domains ~backend
      ~supervisor:qa.Service.Job.supervision
      ~seed:(if noisy then seed + 1 else seed)
      ()
  in
  let run ~obs ~parent ~should_stop ~max_iterations ~import f =
    let r =
      Hyqsat.Solve.run ~max_iterations ~should_stop ~obs ~parent ~import (HS.Hybrid config) f
    in
    {
      Service.Portfolio.result = r.HS.result;
      iterations = r.HS.iterations;
      qa_calls = r.HS.qa_calls;
      qa_failures = r.HS.qa_failures;
      qa_degraded = r.HS.qa_degraded;
      strategy_uses = Array.copy r.HS.strategy_uses;
      reused_clauses = r.HS.reused_clauses;
      learnts = r.HS.learnts;
      proof = r.HS.proof;
    }
  in
  { Service.Portfolio.name = (if noisy then "hybrid-noisy" else "hybrid"); run }

type pass = {
  iterations : float;  (** mean per job *)
  qa_calls : int;
  strategies : int array;  (** s1–s4 uses, summed *)
  host_s : float;  (** device host time, summed *)
  wall_s : float;  (** job wall time, summed *)
  jobs : int;
  uncertified : int;  (** answers that are not a certified model *)
}

(* one seed's pool through Batch.process on a device of [sweeps] *)
let run_pool ~noisy ~sweeps seed =
  let host_s = ref 0. in
  let backend = Exp_common.device ~host_s (schedule sweeps) in
  let members ~spec:_ ~seed = [ member ~backend ~noisy ~seed ] in
  let strategies = Array.make 4 0 in
  let iterations = ref 0 and qa_calls = ref 0 and wall_s = ref 0. and uncertified = ref 0 in
  let jobs = pool seed in
  List.iter
    (fun spec ->
      let r, dt =
        Bench_util.wall (fun () ->
            Batch.process ~members ~obs:Obs.Ctx.null ~parent:Obs.Span.none spec
              ~enqueued_at:(Unix.gettimeofday ()) ())
      in
      let record = r.Batch.record in
      wall_s := !wall_s +. dt;
      iterations := !iterations + record.Service.Telemetry.iterations;
      qa_calls := !qa_calls + record.Service.Telemetry.qa_calls;
      Array.iteri (fun i n -> strategies.(i) <- strategies.(i) + n) record.strategy_uses;
      match r.Batch.outcome with
      | Service.Job.Sat _ when record.verified = "model" -> ()
      | _ -> incr uncertified)
    jobs;
  let jobs = List.length jobs in
  {
    iterations = float_of_int !iterations /. float_of_int jobs;
    qa_calls = !qa_calls;
    strategies;
    host_s = !host_s;
    wall_s = !wall_s;
    jobs;
    uncertified = !uncertified;
  }

type row = {
  sweeps : int;
  per_seed : float list;  (** iterations per job, one per seed *)
  mean_iterations : float;
  passes : pass list;
  noisy : pass list;  (** the hybrid-noisy member, one per noisy seed *)
  uf_s_s1 : float;
  table1 : float * float;  (** Table I average / geomean at 10 problems *)
}

let sum f r = List.fold_left (fun acc p -> acc +. f p) 0. r.passes
let per_job r x = x /. sum (fun p -> float_of_int p.jobs) r
let strategy r i = sum (fun p -> float_of_int p.strategies.(i)) r
let qa_calls r = sum (fun p -> float_of_int p.qa_calls) r
let useful r = (strategy r 0 +. strategy r 1 +. strategy r 3) /. qa_calls r
let host_ms r = 1e3 *. per_job r (sum (fun p -> p.host_s) r)
let wall_ms r = 1e3 *. per_job r (sum (fun p -> p.wall_s) r)
let uncertified r =
  List.fold_left (fun acc p -> acc + p.uncertified) 0 (r.passes @ r.noisy)

let noisy_per_seed r = List.map (fun p -> p.iterations) r.noisy

let measure (ctx : Bench_util.ctx) sweeps =
  let passes = List.map (run_pool ~noisy:false ~sweeps) seeds in
  let per_seed = List.map (fun p -> p.iterations) passes in
  let noisy = List.map (run_pool ~noisy:true ~sweeps) noisy_seeds in
  let backend = Exp_common.device (schedule sweeps) in
  {
    sweeps;
    per_seed;
    mean_iterations = Bench_util.mean per_seed;
    passes;
    noisy;
    uf_s_s1 = Exp_fig10.uf_s ~backend ctx Exp_fig10.s1_only;
    table1 =
      Exp_table1.average (Exp_table1.rows ~backend { ctx with Bench_util.problems = 10 });
  }

(* the depth rule against the deepest row [top] *)
let within_rule ~top r =
  r.mean_iterations <= 1.02 *. top.mean_iterations
  && List.for_all2 (fun x t -> x <= 1.06 *. t) r.per_seed top.per_seed
  && r.uf_s_s1 >= top.uf_s_s1

(* iterations and strategy uses per job are exact counts over 150 jobs:
   three decimals *)
let count x = Json.Num (float_of_string (Printf.sprintf "%.3f" x))
let by_seed seeds xs = Json.Obj (List.map2 (fun s x -> (string_of_int s, count x)) seeds xs)

let row_json r ~within_rule =
  Json.Obj
    [
      ("sweeps", Int r.sweeps);
      ("iterations_per_job", by_seed seeds r.per_seed);
      ("iterations_per_job_mean", count r.mean_iterations);
      ( "strategies_per_job",
        Obj
          (List.mapi
             (fun i name -> (name, count (per_job r (strategy r i))))
             [ "s1"; "s2"; "s3"; "s4" ]) );
      ("qa_calls_per_job", count (per_job r (qa_calls r)));
      ("useful", Bench_util.num (useful r));
      ("device_host_ms_per_job", Bench_util.num (host_ms r));
      ("job_wall_ms", Bench_util.num (wall_ms r));
      ("uncertified", Int (uncertified r));
      ("noisy_iterations_per_job", by_seed noisy_seeds (noisy_per_seed r));
      ("uf_s_s1_reduction", Bench_util.num r.uf_s_s1);
      ("table1_average", Bench_util.num (fst r.table1));
      ("table1_geomean", Bench_util.num (snd r.table1));
      ("within_rule", Bool within_rule);
    ]

let run (ctx : Bench_util.ctx) =
  Bench_util.header "Device depth — hybrid-sat iterations against device sweeps"
    "(not a paper figure; the cheapest device anneal the hybrid loop can measure)";
  Printf.printf "%6s %8s %s %7s %5s %5s %5s %5s %6s %7s %7s %6s %6s %6s %4s\n" "sweeps" "it/job"
    (String.concat " " (List.map (Printf.sprintf "%6d") seeds))
    "noisy" "s1" "s2" "s3" "s4" "useful" "dev ms" "job ms" "UF-s" "T1avg" "T1geo" "fail";
  Bench_util.hr ();
  let rows =
    List.map
      (fun sweeps ->
        let r = measure ctx sweeps in
        Printf.printf
          "%6d %8.3f %s %7.3f %5.2f %5.2f %5.2f %5.2f %6.3f %7.2f %7.2f %6.2f %6.2f %6.2f %4d\n%!"
          r.sweeps r.mean_iterations
          (String.concat " " (List.map (Printf.sprintf "%6.2f") r.per_seed))
          (Bench_util.mean (noisy_per_seed r))
          (per_job r (strategy r 0))
          (per_job r (strategy r 1))
          (per_job r (strategy r 2))
          (per_job r (strategy r 3))
          (useful r) (host_ms r) (wall_ms r) r.uf_s_s1 (fst r.table1) (snd r.table1)
          (uncertified r);
        r)
      depths
  in
  let top = List.nth rows (List.length rows - 1) in
  let within = List.filter (within_rule ~top) rows in
  Bench_util.hr ();
  Printf.printf "within the rule against %d sweeps: %s (the device anneals %d)\n" top.sweeps
    (String.concat ", " (List.map (fun r -> string_of_int r.sweeps) within))
    Anneal.Sampler.default_schedule.Anneal.Sampler.sweeps;
  Bench_util.write_json ctx "device"
    [
      ("seeds", Json.Arr (List.map (fun s -> Json.Int s) seeds));
      ("beta_min", Bench_util.num Anneal.Sampler.default_schedule.Anneal.Sampler.beta_min);
      ("beta_max", Bench_util.num Anneal.Sampler.default_schedule.Anneal.Sampler.beta_max);
      ("device_sweeps", Json.Int Anneal.Sampler.default_schedule.Anneal.Sampler.sweeps);
      ("rows", Json.Arr (List.map (fun r -> row_json r ~within_rule:(List.memq r within)) rows));
    ];
  if List.exists (fun r -> uncertified r > 0) rows then begin
    prerr_endline "device: an answer was not a certified model";
    exit 1
  end
