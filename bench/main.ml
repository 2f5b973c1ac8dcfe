(* Experiment harness: one experiment per paper table/figure.

   dune exec bench/main.exe                  — run everything at small scale
   dune exec bench/main.exe -- table1 fig13  — run a subset
   dune exec bench/main.exe -- --scale paper — approach paper-scale sizes *)

let experiments =
  [
    ("fig1", Exp_fig1.run);
    ("fig5", Exp_fig5.run);
    ("fig8", Exp_fig8.run);
    ("table1", Exp_table1.run);
    ("fig10", Exp_fig10.run);
    ("table2", Exp_table2.run);
    ("fig11", Exp_fig11.run);
    ("fig12", Exp_fig12.run);
    ("fig13", Exp_fig13.run);
    ("fig14", Exp_fig14.run);
    ("fig15", Exp_fig15.run);
    ("table3", Exp_table3.run);
    ("ablation", Exp_ablation.run);
    ("device", Exp_device.run);
    ("batch", Exp_batch.run);
    ("anneal", Exp_anneal.run);
    ("serve", Exp_serve.run);
    ("incremental", Exp_incremental.run);
    ("maxsat", Exp_maxsat.run);
    ("cdcl", Exp_cdcl.run);
  ]

let run_selected names scale seed problems trace fault_rate =
  let ctx = { Bench_util.scale; seed; problems; trace; fault_rate } in
  let selected =
    match names with
    | [] -> experiments
    | _ ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %S (have: %s)\n" n
                  (String.concat ", " (List.map fst experiments));
                exit 2)
          names
  in
  Printf.printf "HyQSAT experiment harness — scale=%s seed=%d problems/bench=%d\n"
    (match scale with `Paper -> "paper" | `Small -> "small")
    seed problems;
  List.iter
    (fun (name, f) ->
      let (), dt = Bench_util.wall (fun () -> f ctx) in
      Printf.printf "[%s finished in %.1f s]\n%!" name dt)
    selected

open Cmdliner

let names_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiments to run (default: all).")

let scale_arg =
  Arg.(
    value
    & opt (enum [ ("small", `Small); ("paper", `Paper) ]) `Small
    & info [ "scale" ] ~docv:"SCALE" ~doc:"Workload scale: $(b,small) (seconds) or $(b,paper).")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let problems_arg =
  Arg.(value & opt int 3 & info [ "problems" ] ~docv:"N" ~doc:"Instances per benchmark.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a JSONL observability trace to $(docv) (currently used by $(b,batch)).")

let fault_rate_arg =
  Arg.(
    value & opt float 0.
    & info [ "qa-fault-rate" ] ~docv:"P"
        ~doc:
          "QA backend fault-injection rate for the $(b,batch) experiment's resilience smoke \
           (0 disables it).")

let cmd =
  let doc = "regenerate the HyQSAT paper's tables and figures" in
  Cmd.v (Cmd.info "hyqsat-bench" ~doc)
    Term.(
      const run_selected $ names_arg $ scale_arg $ seed_arg $ problems_arg $ trace_arg
      $ fault_rate_arg)

let () = exit (Cmd.eval cmd)
