type job = {
  embedding : Embed.Embedding.t;
  objective : Qubo.Pbq.t;
  edges : (int * int) list;
}

type outcome = {
  assignment : (int * bool) list;
  energy : float;
  physical_energy : float;
  chain_breaks : int;
  time_us : float;
}

exception Unembedded_term of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unembedded_term s)) fmt

let chain_of job node =
  match Embed.Embedding.chain job.embedding node with
  | Some c -> c
  | None -> fail "node %d has no chain" node

(* physical coupler realising a logical edge: the registered one, else any
   adjacent qubit pair between the chains *)
let coupler_of job u v =
  match Embed.Embedding.edge_coupler job.embedding u v with
  | Some (qu, qv) -> if u < v then (qu, qv) else (qv, qu)
  | None ->
      let cu = chain_of job u and cv = chain_of job v in
      let g = job.embedding.Embed.Embedding.graph in
      let found = ref None in
      List.iter
        (fun qu ->
          List.iter
            (fun qv ->
              if !found = None && Chimera.Graph.adjacent g qu qv then found := Some (qu, qv))
            cv)
        cu;
      (match !found with Some c -> c | None -> fail "edge (%d,%d) has no coupler" u v)

(* steepest-descent repair on the logical objective: models the machine-side
   post-processing D-Wave applies to raw samples (paper's related work [6]);
   chain breaks and thermal residue mostly vanish here while genuinely
   frustrated (unsatisfiable) problems keep a positive energy floor *)
let greedy_descent objective lookup =
  let vars = Qubo.Pbq.vars objective in
  (* adjacency: var → (neighbour, coefficient) list, built once *)
  let adj = Hashtbl.create (List.length vars) in
  let add v w c = Hashtbl.replace adj v ((w, c) :: Option.value ~default:[] (Hashtbl.find_opt adj v)) in
  Qubo.Pbq.iter_quad objective (fun i j c ->
      add i j c;
      add j i c);
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < 8 do
    improved := false;
    incr passes;
    List.iter
      (fun v ->
        let current = Hashtbl.find lookup v in
        (* energy change of setting v := true, given the other values *)
        let delta = ref (Qubo.Pbq.linear objective v) in
        List.iter
          (fun (w, c) -> if Hashtbl.find lookup w then delta := !delta +. c)
          (Option.value ~default:[] (Hashtbl.find_opt adj v));
        let delta = if current then -. !delta else !delta in
        if delta < -1e-12 then begin
          Hashtbl.replace lookup v (not current);
          improved := true
        end)
      vars
  done

let run_via ?(obs = Obs.Ctx.null) ?(noise = Noise.noise_free) ?schedule
    ?(chain_strength = 2.0) ?(postprocess = true)
    ?(timing = Timing.d_wave_2000q) ?(reads = 1) ?(domains = 1) ~sample rng job =
  if reads < 1 then invalid_arg "Machine.run: reads";
  let schedule =
    match schedule with
    | Some s -> s
    | None ->
        if noise.Noise.shallow_anneal then Sampler.quick_schedule else Sampler.default_schedule
  in
  (* normalise to hardware range and move to spin space *)
  let normalized = Qubo.Normalize.apply job.objective in
  let logical = Qubo.Ising.of_qubo normalized in
  (* dense physical index over the qubits of all chains *)
  let phys_of_qubit = Hashtbl.create 256 in
  let qubit_of_phys = ref [] in
  let touch q =
    if not (Hashtbl.mem phys_of_qubit q) then begin
      Hashtbl.replace phys_of_qubit q (Hashtbl.length phys_of_qubit);
      qubit_of_phys := q :: !qubit_of_phys
    end
  in
  let nodes = Embed.Embedding.nodes job.embedding in
  List.iter (fun node -> List.iter touch (chain_of job node)) nodes;
  let n_phys = Hashtbl.length phys_of_qubit in
  let h = Array.make (max n_phys 1) 0. in
  let couplings = ref [] in
  (* distribute each logical field over its chain *)
  let logical_h node =
    match Hashtbl.find_opt logical.Qubo.Ising.spin_of_var node with
    | Some i -> logical.Qubo.Ising.h.(i)
    | None -> 0.
  in
  List.iter
    (fun node ->
      let chain = chain_of job node in
      let share = logical_h node /. float_of_int (List.length chain) in
      List.iter (fun q -> h.(Hashtbl.find phys_of_qubit q) <- share) chain)
    nodes;
  (* logical couplings onto their physical couplers *)
  List.iter
    (fun ((iu, iv), c) ->
      let u = logical.Qubo.Ising.var_of_spin.(iu)
      and v = logical.Qubo.Ising.var_of_spin.(iv) in
      let qu, qv = coupler_of job u v in
      couplings :=
        ((Hashtbl.find phys_of_qubit qu, Hashtbl.find phys_of_qubit qv), c) :: !couplings)
    logical.Qubo.Ising.j;
  (* ferromagnetic chain couplers on every internal hardware edge *)
  let g = job.embedding.Embed.Embedding.graph in
  List.iter
    (fun node ->
      let chain = chain_of job node in
      let rec pairs = function
        | [] -> ()
        | q :: rest ->
            List.iter
              (fun q' ->
                if Chimera.Graph.adjacent g q q' then
                  couplings :=
                    ((Hashtbl.find phys_of_qubit q, Hashtbl.find phys_of_qubit q'),
                      -.chain_strength)
                    :: !couplings)
              rest;
            pairs rest
      in
      pairs chain)
    nodes;
  let ising =
    Sparse_ising.build ~n:n_phys ~h:(Array.sub h 0 n_phys) ~couplings:!couplings
      ~offset:logical.Qubo.Ising.offset
  in
  (* chain-coherent initial spins, mirroring how physical chains freeze out
     as single logical degrees of freedom; drawn before the device call so
     a failed call consumes exactly one draw block either way *)
  let init = Array.make (max n_phys 1) 1 in
  List.iter
    (fun node ->
      let s = if Stats.Rng.bool rng then 1 else -1 in
      List.iter (fun q -> init.(Hashtbl.find phys_of_qubit q) <- s) (chain_of job node))
    nodes;
  let request =
    {
      Backend.ising;
      params = Sampler.make_params ~schedule ~noise ~reads ();
      init = Some (Array.sub init 0 n_phys);
      domains;
      timing;
    }
  in
  match (sample rng request : (Backend.response, Backend.failure) result) with
  | Error _ as e -> e
  | Ok resp ->
      let spins = resp.Backend.spins in
      (* unembed by majority vote *)
      let chain_breaks = ref 0 in
      let assignment =
        List.map
          (fun node ->
            let chain = chain_of job node in
            let up =
              List.fold_left
                (fun acc q -> if spins.(Hashtbl.find phys_of_qubit q) = 1 then acc + 1 else acc)
                0 chain
            in
            let len = List.length chain in
            if up > 0 && up < len then incr chain_breaks;
            let value =
              if 2 * up > len then true
              else if 2 * up < len then false
              else Stats.Rng.bool rng
            in
            (node, value))
          nodes
      in
      let lookup = Hashtbl.create (List.length assignment) in
      List.iter (fun (node, v) -> Hashtbl.replace lookup node v) assignment;
      List.iter
        (fun v -> if not (Hashtbl.mem lookup v) then fail "objective var %d not in embedding" v)
        (Qubo.Pbq.vars job.objective);
      if postprocess then begin
        (* D-Wave-style optimisation post-processing: a short logical-level
           anneal seeded from the unembedded sample, then steepest descent.
           This runs host-side, so it never goes through the backend — it is
           available even when the device is down.  It removes the energy
           residue long chains leave behind; a genuinely unsatisfiable
           clause set keeps its positive floor *)
        let logical_sparse =
          Sparse_ising.build ~n:logical.Qubo.Ising.num_spins
            ~h:(Array.sub logical.Qubo.Ising.h 0 logical.Qubo.Ising.num_spins)
            ~couplings:logical.Qubo.Ising.j ~offset:logical.Qubo.Ising.offset
        in
        let init =
          Array.init logical.Qubo.Ising.num_spins (fun i ->
              if Hashtbl.find lookup logical.Qubo.Ising.var_of_spin.(i) then 1 else -1)
        in
        (* depth scales with the logical problem: the paper's noise-free
           reference runs dwave-neal "with a long timeout" [19] *)
        let post_schedule =
          {
            Sampler.sweeps = max 128 (8 * logical.Qubo.Ising.num_spins);
            beta_min = 0.3;
            beta_max = 12.;
          }
        in
        let params = Sampler.make_params ~schedule:post_schedule () in
        let spins' = Sampler.sample ~obs ~params ~init rng logical_sparse in
        Array.iteri
          (fun i s -> Hashtbl.replace lookup logical.Qubo.Ising.var_of_spin.(i) (s = 1))
          spins';
        greedy_descent job.objective lookup
      end;
      let assignment = List.map (fun (node, _) -> (node, Hashtbl.find lookup node)) assignment in
      let energy = Qubo.Pbq.eval job.objective (Hashtbl.find lookup) in
      if not (Obs.Ctx.is_null obs) then begin
        Obs.Metrics.count obs "anneal_chain_breaks_total" !chain_breaks;
        Obs.Metrics.observe obs "anneal_time_us" resp.Backend.time_us
      end;
      Ok
        {
          assignment;
          energy;
          physical_energy = resp.Backend.energy;
          chain_breaks = !chain_breaks;
          time_us = resp.Backend.time_us;
        }

let run ?obs ?noise ?schedule ?chain_strength ?postprocess ?timing ?reads ?domains rng job =
  let sample rng req = Backend.sample ?obs Backend.best_of rng req in
  match
    run_via ?obs ?noise ?schedule ?chain_strength ?postprocess ?timing ?reads ?domains ~sample
      rng job
  with
  | Ok outcome -> outcome
  | Error _ -> assert false (* the simulator is infallible *)
