(* Shared benchmark-suite machinery for the Table I/II-style experiments. *)

module Hybrid = Hyqsat.Hybrid_solver

let instances (ctx : Bench_util.ctx) (spec : Workload.Spec.t) =
  List.init ctx.Bench_util.problems (fun i ->
      let rng = Bench_util.rng_of ctx (Hashtbl.hash (spec.Workload.Spec.id, i)) in
      spec.Workload.Spec.generate rng ctx.Bench_util.scale)

let solve_classic ?(config = Cdcl.Config.minisat_like) f =
  Hyqsat.Solve.run (Hyqsat.Solve.Classic config) f

let solve_hybrid ?max_iterations ~config f =
  Hyqsat.Solve.run ?max_iterations (Hyqsat.Solve.Hybrid config) f

let hybrid_config ?(noise = Anneal.Noise.noise_free) ?(strategies = Hyqsat.Backend.all_enabled)
    ?(queue_mode = Hyqsat.Frontend.Activity_bfs) ?(adjust = true) ?(graph_size = 16) ?backend
    seed =
  Hybrid.make_config ~noise ~strategies ~queue_mode ~adjust_coefficients:adjust
    ~graph:(Chimera.Graph.create ~rows:graph_size ~cols:graph_size)
    ?backend ~seed ()

(* The simulator anneal [schedule] instead of the device's own: what
   [Anneal.Backend.best_of] runs, with the depth as an argument, so bench
   code can try other device depths without a library knob.  Each call's
   host wall time is added to [host_s]. *)
let device ?(host_s = ref 0.) (schedule : Anneal.Sampler.schedule) =
  let module B = Anneal.Backend in
  B.of_fn
    ~name:(Printf.sprintf "sa-%d" schedule.Anneal.Sampler.sweeps)
    ~capabilities:{ B.fallible = false }
    (fun ?obs rng (req : B.request) ->
      let t0 = Unix.gettimeofday () in
      let spins =
        Anneal.Sampler.sample ?obs ~noise:req.B.noise ~reads:req.B.reads ?init:req.B.init
          ~domains:(max 1 req.B.domains) ~schedule rng req.B.ising
      in
      let energy = Anneal.Sparse_ising.energy req.B.ising spins in
      host_s := !host_s +. (Unix.gettimeofday () -. t0);
      Ok { B.spins; energy; time_us = B.model_time_us req })

(* cap pathological runs so one outlier cannot stall the whole experiment *)
let iteration_cap (ctx : Bench_util.ctx) =
  match ctx.Bench_util.scale with `Paper -> 2_000_000 | `Small -> 200_000

let reduction classic hybrid =
  Bench_util.ratio classic.Hybrid.iterations hybrid.Hybrid.iterations

(* per-benchmark reductions of hybrid vs classic iteration counts *)
let reductions_for ctx spec ~config =
  List.map
    (fun f ->
      let classic = solve_classic f in
      let hybrid = solve_hybrid ~max_iterations:(iteration_cap ctx) ~config f in
      (classic, hybrid, reduction classic hybrid))
    (instances ctx spec)
