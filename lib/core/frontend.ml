type queue_mode = Activity_bfs | Random

type prepared = {
  job : Anneal.Machine.job;
  clause_indices : int list;
  vars_involved : int list;
  all_clauses_embedded : bool;
  time_s : float;
  embed_time_s : float;
}

(* The embedding of a clause queue depends only on the hardware graph and
   the queue's *structure*: each clause's literal variables, in literal
   order and with repeats, in queue order, over which variable universe
   (auxiliary ids are numbered num_vars + position-of-3-lit-clause, so the
   key keeps each clause's size: the tautology (x ∨ ¬x ∨ y) takes an
   auxiliary and (x ∨ y) does not).  Literal signs only shape the QUBO
   coefficients, which are re-encoded on every call — so two queues with
   the same structure share one Chimera placement. *)
type cache_key = int * Sat.Lit.var list list

type cache = {
  graph : Chimera.Graph.t;  (* embeddings are only valid on this graph *)
  table : (cache_key, Embed.Hyqsat_scheme.t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

(* placements a cache retains before it drops the whole table *)
let cache_capacity = 64

let create_cache graph =
  { graph; table = Hashtbl.create cache_capacity; hits = 0; misses = 0 }

let cache_stats c = (c.hits, c.misses)

let embed_via_cache obs cache graph f clauses ~aux_of_clause =
  match cache with
  | None -> Embed.Hyqsat_scheme.embed graph clauses ~aux_of_clause
  | Some c ->
      if not (c.graph == graph) then
        invalid_arg "Frontend.prepare: cache built for a different graph";
      let key =
        ( Sat.Cnf.num_vars f,
          Array.to_list
            (Array.map (fun c -> List.map Sat.Lit.var (Sat.Clause.lits c)) clauses) )
      in
      (match Hashtbl.find_opt c.table key with
      | Some res ->
          c.hits <- c.hits + 1;
          Obs.Metrics.incr obs "embed_cache_hits_total";
          res
      | None ->
          let res = Embed.Hyqsat_scheme.embed graph clauses ~aux_of_clause in
          c.misses <- c.misses + 1;
          Obs.Metrics.incr obs "embed_cache_misses_total";
          (* a full table drops wholesale: the working set of a solve is a
             handful of conflict-hot queues, so an overflow means the keys
             stopped repeating and LRU bookkeeping would buy nothing *)
          if Hashtbl.length c.table >= cache_capacity then Hashtbl.reset c.table;
          Hashtbl.add c.table key res;
          res)

let prepare ?(obs = Obs.Ctx.null) ?cache ?(queue_mode = Activity_bfs)
    ?(adjust = true) ?weights rng graph f ~activity =
  let t0 = Unix.gettimeofday () in
  let limit = Embed.Hyqsat_scheme.capacity_estimate graph in
  let var_budget = Chimera.Graph.num_vertical_lines graph in
  let queue =
    match queue_mode with
    | Activity_bfs -> Clause_queue.generate rng f ~activity ~limit ~var_budget
    | Random -> Clause_queue.generate_random rng f ~limit
  in
  if queue = [] then None
  else begin
    let clauses = Array.of_list (List.map (Sat.Cnf.clause f) queue) in
    (* the embedder only needs the auxiliary numbering; penalties are built
       for the embedded prefix alone, whose numbering is a prefix of this
       one, so the placement stays aligned with the encoding *)
    let aux_of_clause, _ = Qubo.Encode.aux_numbering ~num_vars:(Sat.Cnf.num_vars f) clauses in
    let t_embed = Unix.gettimeofday () in
    let res = embed_via_cache obs cache graph f clauses ~aux_of_clause in
    let embed_time_s = Unix.gettimeofday () -. t_embed in
    let embedded = res.Embed.Hyqsat_scheme.embedded_clauses in
    if embedded = 0 then None
    else begin
      let prefix_clauses = Array.to_list (Array.sub clauses 0 embedded) in
      let enc' = Qubo.Encode.encode ~num_vars:(Sat.Cnf.num_vars f) prefix_clauses in
      let adjusted = if adjust then Some (Qubo.Adjust.adjust enc') else None in
      (* weighted (MaxSAT) mode: scale the adjusted α's by per-clause
         weights so the sampled energy tracks weighted violation cost; the
         unembedded suffix simply keeps its weights out of this job, same
         as unweighted clauses outside the queue prefix *)
      let objective =
        match (weights, adjusted) with
        | None, Some objective -> objective
        | None, None -> Qubo.Encode.objective enc'
        | Some w, _ ->
            let prefix_w =
              Array.of_list
                (List.filteri (fun i _ -> i < embedded) queue
                |> List.map (fun k -> float_of_int w.(k)))
            in
            Qubo.Encode.set_clause_weights enc' prefix_w;
            Qubo.Encode.objective enc'
      in
      let job = { Anneal.Machine.embedding = res.Embed.Hyqsat_scheme.embedding; objective } in
      let clause_indices = List.filteri (fun i _ -> i < embedded) queue in
      let vars_involved =
        List.sort_uniq Int.compare
          (List.concat_map (fun k -> Sat.Clause.vars (Sat.Cnf.clause f k)) clause_indices)
      in
      Some
        {
          job;
          clause_indices;
          vars_involved;
          (* the queue holds no tautology, so the job covers the formula
             when it covers every other clause *)
          all_clauses_embedded =
            embedded
            = Sat.Cnf.fold_clauses
                (fun n _ c -> if Sat.Clause.is_tautology c then n else n + 1)
                0 f;
          time_s = Unix.gettimeofday () -. t0;
          embed_time_s;
        }
    end
  end
