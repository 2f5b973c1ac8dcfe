type job = {
  embedding : Embed.Embedding.t;
  objective : Qubo.Pbq.t;
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

(* [slots.(v)] is node [v]'s index in the sorted node array, or -1: one
   dense table per call, sized by the largest node *)
let slot_table nodes =
  let n = Array.length nodes in
  let slots = Array.make (if n = 0 then 0 else nodes.(n - 1) + 1) (-1) in
  Array.iteri (fun k v -> slots.(v) <- k) nodes;
  slots

let slot_of slots v = if v >= 0 && v < Array.length slots then slots.(v) else -1

(* steepest-descent repair on the logical objective: models the machine-side
   post-processing D-Wave applies to raw samples (paper's related work [6]);
   chain breaks and anneal residue mostly vanish here while genuinely
   frustrated (unsatisfiable) problems keep a positive energy floor.
   [value] holds one bool per embedding node (indexed by [slots]), and
   [vars] are the objective's variables, all of them nodes *)
let greedy_descent objective ~slots ~vars value =
  let vars = Array.of_list vars in
  (* per-node adjacency as (neighbour slot, coefficient), built once and in
     [iter_quad] order, which fixes the order of every delta sum below *)
  let adj = Array.make (Array.length value) [] in
  Qubo.Pbq.iter_quad objective (fun i j c ->
      let si = slots.(i) and sj = slots.(j) in
      adj.(si) <- (sj, c) :: adj.(si);
      adj.(sj) <- (si, c) :: adj.(sj));
  let lin = Array.map (Qubo.Pbq.linear objective) vars in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < 8 do
    improved := false;
    incr passes;
    Array.iteri
      (fun p v ->
        let k = slots.(v) in
        let current = value.(k) in
        (* energy change of setting v := true, given the other values *)
        let delta = ref lin.(p) in
        List.iter (fun (w, c) -> if value.(w) then delta := !delta +. c) adj.(k);
        let delta = if current then -. !delta else !delta in
        if delta < -1e-12 then begin
          value.(k) <- not current;
          improved := true
        end)
      vars
  done

(* ferromagnetic chain coupling, relative to the normalised coefficient
   range *)
let chain_strength = 2.0

(* sweeps of the post-process logical anneal: half a sweep per logical spin,
   at least 8.  The cheapest depth on the curve in EXPERIMENTS.md ("Depth of
   the post-process anneal") whose hybrid-sat iterations per job stay within
   2% of the former [max 128 (8 · spins)] over seeds 1–5 (26.51 against
   26.25) and no seed more than 6% above it (worst +5.7%), for ~2.4 ms of
   host time per job against ~18 *)
let post_sweeps num_spins = max 8 (num_spins / 2)

let run_via ?(obs = Obs.Ctx.null) ?(noise = Noise.noise_free) ?(reads = 1) ?(domains = 1)
    ~sample rng job =
  if reads < 1 then invalid_arg "Machine.run_via: reads";
  let g = job.embedding.Embed.Embedding.graph in
  (* embedding nodes, ascending, with their chains: every per-node table
     below is an array indexed by a node's position here *)
  let nodes = Array.of_list (Embed.Embedding.nodes job.embedding) in
  let slots = slot_table nodes in
  let vars = Qubo.Pbq.vars job.objective in
  List.iter
    (fun v -> if slot_of slots v < 0 then fail "objective var %d not in embedding" v)
    vars;
  let chains = Array.map (chain_of job) nodes in
  (* normalise to hardware range and move to spin space: one logical spin
     per variable of the normalised objective, in ascending order, all of
     them nodes *)
  let normalized = Qubo.Normalize.apply job.objective in
  let var_of_spin = Array.of_list (Qubo.Pbq.vars normalized) in
  let num_spins = Array.length var_of_spin in
  let spin_of_slot = Array.make (Array.length nodes) (-1) in
  Array.iteri (fun i v -> spin_of_slot.(slots.(v)) <- i) var_of_spin;
  let logical_h, logical_j, logical_offset =
    Sparse_ising.of_qubo normalized ~n:num_spins ~spin:(fun v -> spin_of_slot.(slots.(v)))
  in
  (* dense physical index over the qubits of all chains, in first-touch
     order *)
  let phys_of_qubit = Array.make (Chimera.Graph.num_qubits g) (-1) in
  let n_phys = ref 0 in
  Array.iter
    (List.iter (fun q ->
         if phys_of_qubit.(q) < 0 then begin
           phys_of_qubit.(q) <- !n_phys;
           incr n_phys
         end))
    chains;
  let n_phys = !n_phys in
  let phys q =
    let p = phys_of_qubit.(q) in
    if p < 0 then fail "qubit %d is in no chain" q else p
  in
  let h = Array.make n_phys 0. in
  (* distribute each logical field over its chain *)
  Array.iteri
    (fun k chain ->
      let i = spin_of_slot.(k) in
      let field = if i < 0 then 0. else logical_h.(i) in
      let share = field /. float_of_int (List.length chain) in
      List.iter (fun q -> h.(phys_of_qubit.(q)) <- share) chain)
    chains;
  (* logical couplings onto their physical couplers, then ferromagnetic
     chain couplers on every internal hardware edge.  The list order is
     [Sparse_ising.build]'s insertion order, which fixes its CSR order and
     with it every float sum the kernel makes: keep it *)
  let couplings = ref [] in
  List.iter
    (fun ((iu, iv), c) ->
      let qu, qv = coupler_of job var_of_spin.(iu) var_of_spin.(iv) in
      couplings := ((phys qu, phys qv), c) :: !couplings)
    logical_j;
  Array.iter
    (fun chain ->
      let rec pairs = function
        | [] -> ()
        | q :: rest ->
            List.iter
              (fun q' ->
                if Chimera.Graph.adjacent g q q' then
                  couplings :=
                    ((phys_of_qubit.(q), phys_of_qubit.(q')), -.chain_strength) :: !couplings)
              rest;
            pairs rest
      in
      pairs chain)
    chains;
  let ising =
    Sparse_ising.build ~n:n_phys ~h ~couplings:!couplings ~offset:logical_offset
  in
  (* chain-coherent initial spins, mirroring how physical chains freeze out
     as single logical degrees of freedom; drawn before the device call so
     a failed call consumes exactly one draw block either way *)
  let init = Array.make n_phys 1 in
  Array.iter
    (fun chain ->
      let s = if Stats.Rng.bool rng then 1 else -1 in
      List.iter (fun q -> init.(phys_of_qubit.(q)) <- s) chain)
    chains;
  let request = { Backend.ising; noise; reads; init = Some init; domains } in
  match (sample rng request : (Backend.response, Backend.failure) result) with
  | Error _ as e -> e
  | Ok resp ->
      let spins = resp.Backend.spins in
      (* unembed by majority vote, one value per node *)
      let chain_breaks = ref 0 in
      let value = Array.make (Array.length nodes) false in
      Array.iteri
        (fun k chain ->
          let up =
            List.fold_left
              (fun acc q -> if spins.(phys_of_qubit.(q)) = 1 then acc + 1 else acc)
              0 chain
          in
          let len = List.length chain in
          if up > 0 && up < len then incr chain_breaks;
          value.(k) <-
            (if 2 * up > len then true else if 2 * up < len then false else Stats.Rng.bool rng))
        chains;
      (* D-Wave-style optimisation post-processing: a short logical-level
         anneal seeded from the unembedded sample, then steepest descent.
         This runs host-side, so it never goes through the backend — it is
         available even when the device is down.  It removes the energy
         residue long chains leave behind; a genuinely unsatisfiable
         clause set keeps its positive floor *)
      let logical_sparse =
        Sparse_ising.build ~n:num_spins ~h:logical_h ~couplings:logical_j ~offset:logical_offset
      in
      let node_of_spin = Array.map (fun v -> slots.(v)) var_of_spin in
      let init = Array.map (fun k -> if value.(k) then 1 else -1) node_of_spin in
      let schedule =
        { Sampler.sweeps = post_sweeps num_spins; beta_min = 0.3; beta_max = 12. }
      in
      let spins' = Sampler.sample ~obs ~schedule ~init rng logical_sparse in
      Array.iteri (fun i s -> value.(node_of_spin.(i)) <- s = 1) spins';
      greedy_descent job.objective ~slots ~vars value;
      let assignment = Array.to_list (Array.mapi (fun k node -> (node, value.(k))) nodes) in
      let energy = Qubo.Pbq.eval job.objective (fun v -> value.(slots.(v))) in
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
