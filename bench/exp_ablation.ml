(* Extra ablations beyond the paper's figures (DESIGN.md §5): the design
   choices of this implementation that the paper leaves implicit —
   warm-up budget, annealer-consultation period, coefficient adjustment
   inside the solving loop, the device's noise, and how much the device
   anneal contributes next to the machine-side sample post-processing. *)

module Hybrid = Hyqsat.Hybrid_solver
module Backend = Anneal.Backend

(* the simulator cut to one sweep at β = 0.1, near infinite temperature:
   what it returns is close to the chain-coherent random start, so the
   hybrid loop's hints on this row come from the host-side repair *)
let hot_sweep_device =
  Backend.of_fn ~name:"1-hot-sweep" ~capabilities:{ Backend.fallible = false }
    (fun ?obs rng (req : Backend.request) ->
      let spins =
        Anneal.Sampler.sample ?obs ~noise:req.noise ~reads:req.reads ?init:req.init
          ~domains:(max 1 req.domains)
          ~schedule:{ Anneal.Sampler.sweeps = 1; beta_min = 0.1; beta_max = 0.1 }
          rng req.ising
      in
      Ok
        {
          Backend.spins;
          energy = Anneal.Sparse_ising.energy req.ising spins;
          time_us = Backend.model_time_us req;
        })

let uf_suite (ctx : Bench_util.ctx) =
  let sizes = match ctx.Bench_util.scale with `Paper -> [ 150; 200 ] | `Small -> [ 100; 150 ] in
  List.concat_map
    (fun n ->
      List.init ctx.Bench_util.problems (fun i ->
          Workload.Uniform.uf (Bench_util.rng_of ctx (Hashtbl.hash (n, i))) n))
    sizes

let geo_reduction ctx fs config =
  Bench_util.geomean
    (List.map
       (fun f ->
         let classic = Exp_common.solve_classic f in
         let hybrid =
           Exp_common.solve_hybrid ~config ~max_iterations:(Exp_common.iteration_cap ctx) f
         in
         Exp_common.reduction classic hybrid)
       fs)

let run (ctx : Bench_util.ctx) =
  Bench_util.header "Ablations — warm-up budget, QA period, coefficient adjustment, device"
    "(not a paper figure; design-choice sensitivity on the AI workload)";
  let fs = uf_suite ctx in
  let base = Exp_common.hybrid_config ctx.Bench_util.seed in
  let rows =
    [
      ("default (warm-up = sqrt K)", base);
      ("warm-up x0.5", { base with Hybrid.warmup_fraction = 0.5 });
      ("warm-up x2", { base with Hybrid.warmup_fraction = 2.0 });
      ("qa period 4", { base with Hybrid.qa_period = 4 });
      ("qa period 16", { base with Hybrid.qa_period = 16 });
      ("no coefficient adjustment", { base with Hybrid.adjust_coefficients = false });
      ("random queue", { base with Hybrid.queue_mode = Hyqsat.Frontend.Random });
      ("noisy device", { base with Hybrid.noise = Anneal.Noise.default_2000q });
      ("device: 1 hot sweep", { base with Hybrid.backend = hot_sweep_device });
    ]
  in
  Printf.printf "%-28s %12s\n" "variant" "geomean red";
  Bench_util.hr ();
  List.iter
    (fun (name, config) -> Printf.printf "%-28s %12.2f\n%!" name (geo_reduction ctx fs config))
    rows
