type solve_stats = {
  result : Cdcl.Solver.result;
  iterations : int;
  qa_calls : int;
  qa_failures : int;
  qa_degraded : int;
  strategy_uses : int array;
  reused_clauses : int;
  learnts : Sat.Lit.t array list;
  proof : Sat.Drat.t option;
}

type member = {
  name : string;
  run :
    obs:Obs.Ctx.t ->
    parent:Obs.Span.t ->
    should_stop:(unit -> bool) ->
    max_iterations:int ->
    import:Sat.Lit.t array list ->
    Sat.Cnf.t ->
    solve_stats;
}

type member_report = {
  member : string;
  stats : solve_stats;
  time_s : float;
  cancelled : bool;
  error : string option;
}

type race_report = {
  winner : member_report option;
  members : member_report list;
  wall_time_s : float;
}

(* cheapest first: a race's members take the shared pool's lanes in this
   order, so the classical members start before the simulated annealers *)
let member_names = [ "minisat"; "kissat"; "walksat"; "hybrid"; "hybrid-noisy" ]

let idle_stats result =
  {
    result;
    iterations = 0;
    qa_calls = 0;
    qa_failures = 0;
    qa_degraded = 0;
    strategy_uses = Array.make 4 0;
    reused_clauses = 0;
    learnts = [];
    proof = None;
  }

let stats_of_report (r : Hyqsat.Hybrid_solver.report) =
  {
    result = r.Hyqsat.Hybrid_solver.result;
    iterations = r.Hyqsat.Hybrid_solver.iterations;
    qa_calls = r.Hyqsat.Hybrid_solver.qa_calls;
    qa_failures = r.Hyqsat.Hybrid_solver.qa_failures;
    qa_degraded = r.Hyqsat.Hybrid_solver.qa_degraded;
    strategy_uses = Array.copy r.Hyqsat.Hybrid_solver.strategy_uses;
    reused_clauses = r.Hyqsat.Hybrid_solver.reused_clauses;
    learnts = r.Hyqsat.Hybrid_solver.learnts;
    proof = r.Hyqsat.Hybrid_solver.proof;
  }

let hybrid_member ~name ~base ~grid ~seed ~log_proof ~qa =
  {
    name;
    run =
      (fun ~obs ~parent ~should_stop ~max_iterations ~import f ->
        let cdcl = base.Hyqsat.Hybrid_solver.cdcl in
        let config =
          Hyqsat.Hybrid_solver.make_config ~base
            ~graph:
              (if grid = 16 then base.Hyqsat.Hybrid_solver.graph
               else Chimera.Graph.create ~rows:grid ~cols:grid)
            ~cdcl:(if log_proof then Cdcl.Config.with_proof_logging cdcl else cdcl)
            ~qa_reads:qa.Job.reads ~qa_domains:qa.Job.domains
            ~backend:(Anneal.Backend.simulator qa.Job.faults)
            ~supervisor:qa.Job.supervision ~seed ()
        in
        stats_of_report
          (Hyqsat.Solve.run ~max_iterations ~should_stop ~obs ~parent ~import
             (Hyqsat.Solve.Hybrid config) f));
  }

let classic_member ~name ~base ~seed ~log_proof =
  {
    name;
    run =
      (fun ~obs ~parent ~should_stop ~max_iterations ~import f ->
        let config = Cdcl.Config.with_seed seed base in
        let config = if log_proof then Cdcl.Config.with_proof_logging config else config in
        stats_of_report
          (Hyqsat.Solve.run ~max_iterations ~should_stop ~obs ~parent ~import
             (Hyqsat.Solve.Classic config) f));
  }

let walksat_member ~seed =
  {
    name = "walksat";
    run =
      (fun ~obs ~parent:_ ~should_stop ~max_iterations ~import:_ f ->
        (* local search has no clause database to seed *)
        let rng = Stats.Rng.create ~seed in
        (* one flip ≈ one iteration; split the budget over a few restarts *)
        let max_flips = max 1_000 (min 200_000 (max_iterations / 4)) in
        let model, st = Cdcl.Walksat.solve ~max_flips ~restarts:64 ~should_stop rng f in
        Obs.Metrics.count obs "walksat_flips_total" st.Cdcl.Walksat.flips;
        let result =
          match model with
          | Some m -> Cdcl.Solver.Sat m
          | None ->
              Cdcl.Solver.Unknown
                (if should_stop () then Sat.Answer.Cancelled else Sat.Answer.Budget)
        in
        { (idle_stats result) with iterations = st.Cdcl.Walksat.flips });
  }

let make_member ?(grid = 16) ?(log_proof = false) ?(qa = Job.default_qa) ~seed = function
  | "hybrid" ->
      hybrid_member ~name:"hybrid" ~base:Hyqsat.Hybrid_solver.default_config ~grid ~seed
        ~log_proof ~qa
  | "hybrid-noisy" ->
      hybrid_member ~name:"hybrid-noisy" ~base:Hyqsat.Hybrid_solver.noisy_config ~grid
        ~seed:(seed + 1) ~log_proof ~qa
  | "minisat" ->
      classic_member ~name:"minisat" ~base:Cdcl.Config.minisat_like ~seed:(seed + 2) ~log_proof
  | "kissat" ->
      classic_member ~name:"kissat" ~base:Cdcl.Config.kissat_like ~seed:(seed + 3) ~log_proof
  | "walksat" -> walksat_member ~seed:(seed + 4)
  | name -> invalid_arg (Printf.sprintf "Portfolio: unknown member %S" name)

let members_named ?grid ?log_proof ?qa ~seed names =
  List.map (make_member ?grid ?log_proof ?qa ~seed) names

let race ?should_stop:(stop = fun () -> false) ?(max_iterations = max_int)
    ?(obs = Obs.Ctx.null) ?(parent = Obs.Span.none) ?(import = []) members f =
  if members = [] then invalid_arg "Portfolio.race: no members";
  let race_span = Obs.Span.start obs ~parent "race" in
  let t_start = Unix.gettimeofday () in
  (* members are picked up in list order by drawing tickets from one
     counter, and the winner adds [decided] to that counter: whether a
     member was picked up before or after the win is then decided by one
     atomic step, not by how fast the pool's lanes start *)
  let decided = 1 lsl 30 in
  let tickets = Atomic.make 0 in
  let winner_idx = Atomic.make (-1) in
  let won () = Atomic.get tickets >= decided in
  let should_stop () = won () || stop () in
  let members = Array.of_list members in
  let reports = Array.make (Array.length members) None in
  let run_one ~late i m =
    let span = Obs.Span.start obs ~parent:race_span ~attrs:[ ("name", m.name) ] "member" in
    let t0 = Unix.gettimeofday () in
    let report ?error ~cancelled stats =
      let time_s = Unix.gettimeofday () -. t0 in
      Obs.Span.add_attr span "result" (Sat.Answer.label stats.result);
      if cancelled then Obs.Span.add_attr span "cancelled" "true";
      Option.iter (Obs.Span.add_attr span "error") error;
      Obs.Span.stop span;
      { member = m.name; stats; time_s; cancelled; error }
    in
    if late || stop () then
      report ~cancelled:true (idle_stats (Cdcl.Solver.Unknown Sat.Answer.Cancelled))
    else
      (* a raising member must not poison the race: the handler keeps every
         sibling report and any winner already found *)
      match m.run ~obs ~parent:span ~should_stop ~max_iterations ~import f with
      | stats ->
          let decisive = Sat.Answer.is_decisive stats.result in
          if decisive && Atomic.compare_and_set winner_idx (-1) i then
            ignore (Atomic.fetch_and_add tickets decided);
          report stats ~cancelled:((not decisive) && won ())
      | exception e ->
          report ~error:(Printexc.to_string e) ~cancelled:false
            (idle_stats (Cdcl.Solver.Unknown Sat.Answer.Budget))
  in
  let pick_up ~worker:_ =
    let t = Atomic.fetch_and_add tickets 1 in
    let i = t land (decided - 1) in
    reports.(i) <- Some (run_one ~late:(t >= decided) i members.(i))
  in
  (match Array.length members with
  | 1 -> pick_up ~worker:0
  | n ->
      (* members queue for the lanes of the process-wide pool, so a race
         adds no domains of its own *)
      Parallel.Pool.run (Parallel.Pool.shared ()) (List.init n (fun _ -> pick_up)));
  let reports = List.map Option.get (Array.to_list reports) in
  let winner =
    match Atomic.get winner_idx with -1 -> None | i -> Some (List.nth reports i)
  in
  Option.iter (fun w -> Obs.Span.add_attr race_span "winner" w.member) winner;
  Obs.Span.stop race_span;
  { winner; members = reports; wall_time_s = Unix.gettimeofday () -. t_start }

let race_learnts ?(max_clauses = 512) report =
  (* winner's clauses first: they come from the solver that actually
     decided the instance, so they are the most valuable to reuse *)
  let ordered =
    match report.winner with
    | Some w -> w :: List.filter (fun m -> m != w) report.members
    | None -> report.members
  in
  let seen = Hashtbl.create 128 in
  let out = ref [] in
  let count = ref 0 in
  List.iter
    (fun m ->
      List.iter
        (fun c ->
          if !count < max_clauses then begin
            (* dedupe up to literal order: members export the same clause
               with different watched-literal front positions *)
            let key = List.sort compare (Array.to_list c) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              out := c :: !out;
              incr count
            end
          end)
        m.stats.learnts)
    ordered;
  List.rev !out
