let generate ?(top_k = 30) ?(var_budget = max_int) rng f ~activity ~limit =
  let m = Sat.Cnf.num_clauses f in
  (* a tautology is satisfied by every assignment: the CDCL solver skips
     it, so the annealer spends no qubits on it either *)
  let tautology = Array.init m (fun c -> Sat.Clause.is_tautology (Sat.Cnf.clause f c)) in
  let candidates = Array.fold_left (fun n t -> if t then n else n + 1) 0 tautology in
  if candidates = 0 || limit <= 0 then []
  else begin
    (* head: random choice among the top-k activity scores.  A bounded
       insertion scan is O(m·k), cheaper than sorting all clauses on every
       warm-up iteration *)
    let k = min top_k candidates in
    let top = Array.make k (-1) in
    let top_act = Array.make k neg_infinity in
    for c = 0 to m - 1 do
      let a = activity c in
      if (not tautology.(c)) && a > top_act.(k - 1) then begin
        (* insert into the sorted top-k prefix *)
        let i = ref (k - 1) in
        while !i > 0 && top_act.(!i - 1) < a do
          top_act.(!i) <- top_act.(!i - 1);
          top.(!i) <- top.(!i - 1);
          decr i
        done;
        top_act.(!i) <- a;
        top.(!i) <- c
      end
    done;
    let head = top.(Stats.Rng.int rng k) in
    (* breadth-first traversal over shared variables under the variable
       budget; skipped clauses stay unvisited and are re-checked on later
       encounters, when fewer of their variables are new *)
    let visited = Array.make m false in
    let in_set = Array.make (Sat.Cnf.num_vars f) false in
    let n_vars = ref 0 in
    let queue = Queue.create () in
    let out = ref [] in
    let count = ref 0 in
    let push k =
      if (not visited.(k)) && (not tautology.(k)) && !count < limit then begin
        let vars = Sat.Clause.vars (Sat.Cnf.clause f k) in
        let new_vars = List.filter (fun v -> not in_set.(v)) vars in
        if !n_vars + List.length new_vars <= var_budget then begin
          List.iter
            (fun v ->
              in_set.(v) <- true;
              incr n_vars)
            new_vars;
          visited.(k) <- true;
          Queue.push k queue;
          out := k :: !out;
          incr count
        end
      end
    in
    push head;
    while not (Queue.is_empty queue) do
      let k = Queue.pop queue in
      List.iter
        (fun v -> List.iter push (Sat.Cnf.clauses_of_var f v))
        (Sat.Clause.vars (Sat.Cnf.clause f k))
    done;
    List.rev !out
  end

(* the same shuffle of all [m] indices as a plain [k]-of-[m] sample (whose
   first [k] entries it is), then the first [limit] that are no tautology *)
let generate_random rng f ~limit =
  let m = Sat.Cnf.num_clauses f in
  if min limit m <= 0 then []
  else
    Stats.Rng.sample_without_replacement rng m m
    |> List.filter (fun c -> not (Sat.Clause.is_tautology (Sat.Cnf.clause f c)))
    |> List.filteri (fun i _ -> i < limit)
