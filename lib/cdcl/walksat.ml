type stats = { flips : int; restarts_used : int }

(* ---- the incremental kernel -------------------------------------------

   One state serves both walks.  A flip of [v] touches only the clauses
   [v] occurs in: their true-literal counts, the running weighted cost and
   the falsified flags.  The flags live in a Fenwick tree, so "the r-th
   falsified clause in index order" is an O(log m) descent and both pick
   rules below reproduce, draw for draw, the list-based loops they
   replaced (kept as differential oracles in the test/bench oracle
   library). *)

type state = {
  lits : Sat.Lit.t array array;  (* clause k's literals, sorted and distinct *)
  weight : int array;
  pos_occ : int array array;  (* clauses where [v] occurs positively ... *)
  neg_occ : int array array;  (* ... negatively; a tautology on [v] in neither *)
  true_count : int array;
  model : bool array;
  mutable cost : int;  (* summed weight of the falsified clauses *)
  mutable falsified : int;
  tree : int array;  (* Fenwick tree over the falsified flags, 1-based *)
  top_bit : int;  (* largest power of two <= number of clauses *)
}

(* literals are sorted, so a tautology's two literals on one variable sit
   side by side *)
let tautological_at lits i =
  let v = Sat.Lit.var lits.(i) in
  (i > 0 && Sat.Lit.var lits.(i - 1) = v)
  || (i + 1 < Array.length lits && Sat.Lit.var lits.(i + 1) = v)

let first_of_var lits i = i = 0 || Sat.Lit.var lits.(i - 1) <> Sat.Lit.var lits.(i)

let num_distinct_vars lits =
  let c = ref 0 in
  for i = 0 to Array.length lits - 1 do
    if first_of_var lits i then incr c
  done;
  !c

(* the [j]-th of [Sat.Clause.vars] without building the list *)
let nth_var lits j =
  let rec go i seen =
    if first_of_var lits i then
      if seen = j then Sat.Lit.var lits.(i) else go (i + 1) (seen + 1)
    else go (i + 1) seen
  in
  go 0 0

let create ~num_vars ~model weighted =
  let m = Array.length weighted in
  let lits = Array.map (fun (_, c) -> (c : Sat.Clause.t :> Sat.Lit.t array)) weighted in
  let pos = Array.make num_vars [] and neg = Array.make num_vars [] in
  for k = m - 1 downto 0 do
    let ls = lits.(k) in
    Array.iteri
      (fun i l ->
        if not (tautological_at ls i) then begin
          let occ = if Sat.Lit.is_pos l then pos else neg in
          occ.(Sat.Lit.var l) <- k :: occ.(Sat.Lit.var l)
        end)
      ls
  done;
  let top_bit = ref 1 in
  while !top_bit * 2 <= m do
    top_bit := !top_bit * 2
  done;
  {
    lits;
    weight = Array.map fst weighted;
    pos_occ = Array.map Array.of_list pos;
    neg_occ = Array.map Array.of_list neg;
    true_count = Array.make m 0;
    model;
    cost = 0;
    falsified = 0;
    tree = Array.make (m + 1) 0;
    top_bit = !top_bit;
  }

let lit_true model l = model.(Sat.Lit.var l) = Sat.Lit.is_pos l

(* recount everything from [st.model]: O(total literals) *)
let reset st =
  let m = Array.length st.lits in
  Array.fill st.tree 0 (m + 1) 0;
  st.cost <- 0;
  st.falsified <- 0;
  for k = 0 to m - 1 do
    let ls = st.lits.(k) in
    let c = ref 0 in
    for i = 0 to Array.length ls - 1 do
      if lit_true st.model ls.(i) then incr c
    done;
    st.true_count.(k) <- !c;
    if !c = 0 then begin
      st.tree.(k + 1) <- 1;
      st.cost <- st.cost + st.weight.(k);
      st.falsified <- st.falsified + 1
    end
  done;
  (* linear-time Fenwick build *)
  for i = 1 to m do
    let j = i + (i land -i) in
    if j <= m then st.tree.(j) <- st.tree.(j) + st.tree.(i)
  done

let mark st k delta =
  let m = Array.length st.lits in
  let i = ref (k + 1) in
  while !i <= m do
    st.tree.(!i) <- st.tree.(!i) + delta;
    i := !i + (!i land - !i)
  done;
  st.falsified <- st.falsified + delta

(* the [r]-th (0-based) falsified clause in ascending index order *)
let nth_falsified st r =
  let m = Array.length st.lits in
  let pos = ref 0 and rem = ref r and step = ref st.top_bit in
  while !step > 0 do
    let next = !pos + !step in
    if next <= m && st.tree.(next) <= !rem then begin
      pos := next;
      rem := !rem - st.tree.(next)
    end;
    step := !step lsr 1
  done;
  !pos

(* make-side clauses first, so a count never passes through a false zero *)
let flip st v =
  let was = st.model.(v) in
  st.model.(v) <- not was;
  let gain = if was then st.neg_occ.(v) else st.pos_occ.(v) in
  let lose = if was then st.pos_occ.(v) else st.neg_occ.(v) in
  for i = 0 to Array.length gain - 1 do
    let k = gain.(i) in
    let c = st.true_count.(k) in
    st.true_count.(k) <- c + 1;
    if c = 0 then begin
      st.cost <- st.cost - st.weight.(k);
      mark st k (-1)
    end
  done;
  for i = 0 to Array.length lose - 1 do
    let k = lose.(i) in
    let c = st.true_count.(k) - 1 in
    st.true_count.(k) <- c;
    if c = 0 then begin
      st.cost <- st.cost + st.weight.(k);
      mark st k 1
    end
  done

(* satisfied clauses that flipping [v] would falsify: those whose only
   true literal is [v]'s *)
let break_count st v =
  let occ = if st.model.(v) then st.pos_occ.(v) else st.neg_occ.(v) in
  let b = ref 0 in
  for i = 0 to Array.length occ - 1 do
    if st.true_count.(occ.(i)) = 1 then incr b
  done;
  !b

(* ---- weighted minimiser ----------------------------------------------- *)

let minimise ~max_flips ?(should_stop = fun () -> false) rng ~num_vars weighted =
  let n = max num_vars 1 in
  let x = Array.init n (fun _ -> Stats.Rng.bool rng) in
  let st = create ~num_vars ~model:x weighted in
  reset st;
  let best = ref (Array.copy x) in
  let best_cost = ref st.cost in
  let flips = ref 0 in
  while !flips < max_flips && !best_cost > 0 && not (should_stop ()) do
    if st.falsified = 0 then flips := max_flips
    else begin
      let r = Stats.Rng.int rng st.falsified in
      let lits = st.lits.(nth_falsified st (st.falsified - 1 - r)) in
      let nv = num_distinct_vars lits in
      (* an empty clause can never be repaired *)
      if nv > 0 then begin
        flip st (nth_var lits (Stats.Rng.int rng nv));
        if st.cost < !best_cost then begin
          best_cost := st.cost;
          best := Array.copy x
        end
      end
    end;
    incr flips
  done;
  (!best_cost, !best)

(* ---- WalkSAT ---------------------------------------------------------- *)

let solve ?(max_flips = 10_000) ?(restarts = 10) ?(noise = 0.5)
    ?(should_stop = fun () -> false) rng f =
  let n = Sat.Cnf.num_vars f in
  let model = Array.make (max n 1) false in
  let clauses = f.Sat.Cnf.clauses in
  if Array.exists Sat.Clause.is_empty clauses then
    (None, { flips = 0; restarts_used = 0 })
  else begin
    let st = create ~num_vars:n ~model (Array.map (fun c -> (1, c)) clauses) in
    let total_flips = ref 0 in
    let restarts_used = ref 0 in
    let result = ref None in
    let attempt () =
      for v = 0 to n - 1 do
        model.(v) <- Stats.Rng.bool rng
      done;
      reset st;
      let flips = ref 0 in
      let solved = ref (st.falsified = 0) in
      while
        (not !solved) && !flips < max_flips && not (!flips land 63 = 0 && should_stop ())
      do
        (if st.falsified = 0 then solved := true
         else
           let lits = st.lits.(nth_falsified st (Stats.Rng.int rng st.falsified)) in
           let v =
             if Stats.Rng.float rng 1.0 < noise then
               nth_var lits (Stats.Rng.int rng (num_distinct_vars lits))
             else begin
               (* greedy: the first variable of minimal break count *)
               let best = ref (-1) and best_b = ref max_int in
               for i = 0 to Array.length lits - 1 do
                 if first_of_var lits i then begin
                   let v = Sat.Lit.var lits.(i) in
                   let b = break_count st v in
                   if b < !best_b then begin
                     best := v;
                     best_b := b
                   end
                 end
               done;
               !best
             end
           in
           flip st v);
        incr flips;
        incr total_flips
      done;
      !solved
    in
    (try
       for _ = 1 to restarts do
         if should_stop () then raise Exit;
         incr restarts_used;
         if attempt () then begin
           result := Some (Array.copy model);
           raise Exit
         end
       done
     with Exit -> ());
    (!result, { flips = !total_flips; restarts_used = !restarts_used })
  end
