(* Pre-arena CDCL core, kept as a differential oracle and bench baseline.

   This is the solver exactly as it was before the flat clause arena: each
   clause is a heap record with a boxed [int array] of literals, watch
   lists hold clause pointers, activities are a mutable float field.  The
   ONLY deliberate change from that version is that it implements the same
   blocker-literal watch scheme as the arena solver, with the same
   evaluation order — so for any formula, seed and budget the two engines
   make bit-identical search decisions and report identical statistics
   ({!Solver.stats} equality is asserted by the differential fuzz tests),
   while differing purely in clause representation.  That makes it the
   honest baseline for [bench cdcl]: the measured speedup isolates the
   arena layout, not an algorithm change.

   Do not "improve" this module; it must stay behaviourally frozen. *)

type result = Sat.Answer.t =
  | Sat of bool array
  | Unsat
  | Unknown of Sat.Answer.reason

let is_decided_status = function Unknown _ -> false | _ -> true

(* MiniSAT 2.2's search constants: VSIDS and learnt-clause activity decay,
   and the initial learnt-clause budget as a fraction of the clause count *)
let var_decay = 0.95
let clause_decay = 0.999
let learntsize_factor = 1.0 /. 3.0

type cls = {
  mutable lits : int array;
  mutable activity : float;
  learnt : bool;
  mutable deleted : bool;
}

let dummy_cls = { lits = [||]; activity = 0.; learnt = false; deleted = true }

(* a watcher pairs the clause with a blocker literal, as boxed records —
   the representation the arena's packed int pairs replaced *)
type watcher = { wc : cls; wb : int }

let dummy_watcher = { wc = dummy_cls; wb = 0 }

type t = {
  config : Config.t;
  rng : Stats.Rng.t;
  mutable n : int;
  mutable num_original : int;
  mutable assigns : int array;
  mutable level : int array;
  mutable reason : cls array;
  mutable polarity : bool array;
  trail : int Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  mutable watches : watcher Vec.t array;
  learnts : cls Vec.t;
  mutable var_act : float array;
  mutable var_inc : float;
  mutable heap : Var_heap.t;
  mutable chb_alpha : float;
  mutable chb_last_conflict : int array;
  mutable cla_inc : float;
  mutable seen : bool array;
  mutable assumptions : int array;
  mutable last_core : int array;
  mutable simp_trail : int;
  mutable restart_pending : bool;
  mutable conflicts_since_restart : int;
  mutable restart_k : int;
  mutable ema_fast : float;
  mutable ema_slow : float;
  mutable max_learnts : float;
  mutable s_decisions : int;
  mutable s_propagations : int;
  mutable s_conflicts : int;
  mutable s_restarts : int;
  mutable s_learnt_clauses : int;
  mutable s_learnt_literals : int;
  mutable s_deleted : int;
  mutable s_iterations : int;
  mutable s_max_level : int;
  mutable status : result;
}

let lit_sign l = if Sat.Lit.is_pos l then 1 else -1
let value_lit t l = t.assigns.(Sat.Lit.var l) * lit_sign l
let value_var t v = t.assigns.(v)
let decision_level t = Vec.size t.trail_lim

let create ?(config = Config.default) (f : Sat.Cnf.t) =
  let n = Sat.Cnf.num_vars f in
  let m = Sat.Cnf.num_clauses f in
  let var_act = Array.make (max n 1) 0. in
  let t =
    {
      config;
      rng = Stats.Rng.create ~seed:config.Config.seed;
      n;
      num_original = m;
      assigns = Array.make (max n 1) 0;
      level = Array.make (max n 1) 0;
      reason = Array.make (max n 1) dummy_cls;
      polarity = Array.make (max n 1) false;
      trail = Vec.create ~capacity:(max n 16) ~dummy:0 ();
      trail_lim = Vec.create ~dummy:0 ();
      qhead = 0;
      watches = Array.init (max (2 * n) 1) (fun _ -> Vec.create ~dummy:dummy_watcher ());
      learnts = Vec.create ~dummy:dummy_cls ();
      var_act;
      var_inc = 1.0;
      heap = Var_heap.create n var_act;
      chb_alpha = 0.4;
      chb_last_conflict = Array.make (max n 1) 0;
      cla_inc = 1.0;
      seen = Array.make (max n 1) false;
      assumptions = [||];
      last_core = [||];
      simp_trail = 0;
      restart_pending = false;
      conflicts_since_restart = 0;
      restart_k = 1;
      ema_fast = 0.;
      ema_slow = 0.;
      max_learnts = float_of_int m *. learntsize_factor;
      s_decisions = 0;
      s_propagations = 0;
      s_conflicts = 0;
      s_restarts = 0;
      s_learnt_clauses = 0;
      s_learnt_literals = 0;
      s_deleted = 0;
      s_iterations = 0;
      s_max_level = 0;
      status = Unknown Sat.Answer.Budget;
    }
  in
  let pending_units = ref [] in
  Sat.Cnf.iter_clauses
    (fun i c ->
      if Sat.Clause.is_tautology c then ()
      else
        let lits = Sat.Clause.to_array c in
        match Array.length lits with
        | 0 -> t.status <- Unsat
        | 1 -> pending_units := (i, lits.(0)) :: !pending_units
        | _ ->
            let cls = { lits; activity = 0.; learnt = false; deleted = false } in
            Vec.push t.watches.(lits.(0)) { wc = cls; wb = lits.(1) };
            Vec.push t.watches.(lits.(1)) { wc = cls; wb = lits.(0) })
    f;
  List.iter
    (fun (_, l) ->
      if not (is_decided_status t.status) then
        match value_lit t l with
        | 1 -> ()
        | -1 -> t.status <- Unsat
        | _ ->
            t.assigns.(Sat.Lit.var l) <- lit_sign l;
            t.level.(Sat.Lit.var l) <- 0;
            Vec.push t.trail l)
    (List.rev !pending_units);
  t

let grow_int a cap =
  let b = Array.make cap 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_var_capacity t n' =
  let cap0 = Array.length t.assigns in
  if n' > cap0 || n' > Var_heap.capacity t.heap then begin
    let cap = max n' (max 16 (2 * cap0)) in
    t.assigns <- grow_int t.assigns cap;
    t.level <- grow_int t.level cap;
    t.chb_last_conflict <- grow_int t.chb_last_conflict cap;
    (let b = Array.make cap dummy_cls in
     Array.blit t.reason 0 b 0 cap0;
     t.reason <- b);
    (let b = Array.make cap false in
     Array.blit t.polarity 0 b 0 cap0;
     t.polarity <- b);
    (let b = Array.make cap false in
     Array.blit t.seen 0 b 0 cap0;
     t.seen <- b);
    (let old = t.watches in
     t.watches <-
       Array.init (2 * cap) (fun i ->
           if i < Array.length old then old.(i)
           else Vec.create ~dummy:dummy_watcher ()));
    let act = Array.make cap 0. in
    Array.blit t.var_act 0 act 0 cap0;
    t.var_act <- act;
    t.heap <- Var_heap.grow t.heap cap act
  end

let invalidate_sat t =
  match t.status with Sat _ -> t.status <- Unknown Sat.Answer.Budget | _ -> ()

let new_var t =
  let v = t.n in
  ensure_var_capacity t (v + 1);
  t.n <- v + 1;
  t.assigns.(v) <- 0;
  t.level.(v) <- 0;
  t.reason.(v) <- dummy_cls;
  t.polarity.(v) <- false;
  t.var_act.(v) <- 0.;
  t.chb_last_conflict.(v) <- 0;
  t.seen.(v) <- false;
  Var_heap.insert t.heap v;
  invalidate_sat t;
  v

let var_rescale t =
  for v = 0 to t.n - 1 do
    t.var_act.(v) <- t.var_act.(v) *. 1e-100
  done;
  t.var_inc <- t.var_inc *. 1e-100;
  Var_heap.rebuild t.heap

let bump_var_internal t v amount =
  t.var_act.(v) <- t.var_act.(v) +. amount;
  if t.var_act.(v) > 1e100 then var_rescale t;
  Var_heap.notify_increase t.heap v

let decay_var_activity t =
  match t.config.Config.heuristic with
  | Config.Vsids -> t.var_inc <- t.var_inc /. var_decay
  | Config.Chb -> ()

let chb_update t v participated =
  let multiplier = if participated then 1.0 else 0.9 in
  let age = float_of_int (t.s_conflicts - t.chb_last_conflict.(v) + 1) in
  let reward = multiplier /. age in
  t.var_act.(v) <- ((1. -. t.chb_alpha) *. t.var_act.(v)) +. (t.chb_alpha *. reward);
  Var_heap.notify_increase t.heap v

let bump_cla t c =
  c.activity <- c.activity +. t.cla_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun cl -> cl.activity <- cl.activity *. 1e-20) t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let decay_cla_activity t = t.cla_inc <- t.cla_inc /. clause_decay

let enqueue t l reason =
  let v = Sat.Lit.var l in
  t.assigns.(v) <- lit_sign l;
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  Vec.push t.trail l;
  if reason != dummy_cls then t.s_propagations <- t.s_propagations + 1

let enqueue_root t l =
  let v = Sat.Lit.var l in
  t.assigns.(v) <- lit_sign l;
  t.level.(v) <- 0;
  t.reason.(v) <- dummy_cls;
  Vec.push t.trail l

(* same blocker algorithm and evaluation order as [Solver.propagate], on
   the boxed representation *)
let propagate t =
  let conflict = ref dummy_cls in
  while !conflict == dummy_cls && t.qhead < Vec.size t.trail do
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    let not_p = Sat.Lit.negate p in
    let ws = t.watches.(not_p) in
    let i = ref 0 and j = ref 0 in
    let n_ws = Vec.size ws in
    while !i < n_ws do
      let w = Vec.get ws !i in
      incr i;
      let c = w.wc in
      let blocker = w.wb in
      let bval = value_lit t blocker in
      if bval = 1 then begin
        Vec.set ws !j w;
        incr j
      end
      else begin
        if c.lits.(0) = not_p then begin
          c.lits.(0) <- c.lits.(1);
          c.lits.(1) <- not_p
        end;
        let first = c.lits.(0) in
        let fval = if first = blocker then bval else value_lit t first in
        if fval = 1 then begin
          Vec.set ws !j { wc = c; wb = first };
          incr j
        end
        else begin
          let k = ref 2 and found = ref false in
          let len = Array.length c.lits in
          while (not !found) && !k < len do
            if value_lit t c.lits.(!k) <> -1 then found := true else incr k
          done;
          if !found then begin
            c.lits.(1) <- c.lits.(!k);
            c.lits.(!k) <- not_p;
            Vec.push t.watches.(c.lits.(1)) { wc = c; wb = first }
          end
          else begin
            Vec.set ws !j { wc = c; wb = first };
            incr j;
            if fval = -1 then begin
              conflict := c;
              t.qhead <- Vec.size t.trail;
              while !i < n_ws do
                Vec.set ws !j (Vec.get ws !i);
                incr i;
                incr j
              done
            end
            else enqueue t first c
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !conflict

let purge_deleted_watches t =
  Array.iter (fun ws -> Vec.filter_in_place (fun w -> not w.wc.deleted) ws) t.watches

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Vec.get t.trail_lim lvl in
    let chb = t.config.Config.heuristic = Config.Chb in
    for i = Vec.size t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = Sat.Lit.var l in
      if chb then chb_update t v (t.chb_last_conflict.(v) = t.s_conflicts);
      t.assigns.(v) <- 0;
      t.reason.(v) <- dummy_cls;
      t.polarity.(v) <- Sat.Lit.is_pos l;
      Var_heap.insert t.heap v
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim lvl;
    t.qhead <- Vec.size t.trail
  end

let add_clause t lits =
  match t.status with
  | Unsat -> ()
  | _ ->
      invalidate_sat t;
      cancel_until t 0;
      List.iter
        (fun l ->
          let v = Sat.Lit.var l in
          while t.n <= v do
            ignore (new_var t)
          done)
        lits;
      let taut = ref false and sat_root = ref false in
      let kept = ref [] in
      List.iter
        (fun l ->
          if not (!taut || !sat_root) then
            match value_lit t l with
            | 1 -> sat_root := true
            | -1 -> ()
            | _ ->
                if List.exists (fun k -> k = Sat.Lit.negate l) !kept then taut := true
                else if not (List.mem l !kept) then kept := l :: !kept)
        lits;
      t.num_original <- t.num_original + 1;
      if not (!taut || !sat_root) then begin
        match List.rev !kept with
        | [] -> t.status <- Unsat
        | [ l ] -> enqueue_root t l
        | ls ->
            let arr = Array.of_list ls in
            let c = { lits = arr; activity = 0.; learnt = false; deleted = false } in
            Vec.push t.watches.(arr.(0)) { wc = c; wb = arr.(1) };
            Vec.push t.watches.(arr.(1)) { wc = c; wb = arr.(0) }
      end

let lit_redundant t l =
  let v = Sat.Lit.var l in
  let r = t.reason.(v) in
  r != dummy_cls
  && Array.for_all
       (fun q ->
         let w = Sat.Lit.var q in
         w = v || t.seen.(w) || t.level.(w) = 0)
       r.lits

let analyze t conflict =
  let learnt = ref [] in
  let path_c = ref 0 in
  let p = ref (-1) in
  let index = ref (Vec.size t.trail - 1) in
  let c = ref conflict in
  let dl = decision_level t in
  let continue = ref true in
  while !continue do
    if !c.learnt then bump_cla t !c;
    Array.iter
      (fun q ->
        let v = Sat.Lit.var q in
        if (!p = -1 || v <> Sat.Lit.var !p) && (not t.seen.(v)) && t.level.(v) > 0 then begin
          t.seen.(v) <- true;
          (match t.config.Config.heuristic with
          | Config.Vsids -> bump_var_internal t v t.var_inc
          | Config.Chb -> t.chb_last_conflict.(v) <- t.s_conflicts);
          if t.level.(v) >= dl then incr path_c else learnt := q :: !learnt
        end)
      !c.lits;
    while not t.seen.(Sat.Lit.var (Vec.get t.trail !index)) do
      decr index
    done;
    p := Vec.get t.trail !index;
    decr index;
    t.seen.(Sat.Lit.var !p) <- false;
    decr path_c;
    if !path_c <= 0 then continue := false else c := t.reason.(Sat.Lit.var !p)
  done;
  let uip = Sat.Lit.negate !p in
  let tail = List.filter (fun l -> not (lit_redundant t l)) !learnt in
  List.iter (fun l -> t.seen.(Sat.Lit.var l) <- false) !learnt;
  let tail = List.sort (fun a b -> compare t.level.(Sat.Lit.var b) t.level.(Sat.Lit.var a)) tail in
  let back_level = match tail with [] -> 0 | l :: _ -> t.level.(Sat.Lit.var l) in
  (Array.of_list (uip :: tail), back_level)

let analyze_final t p =
  let core = ref [ p ] in
  if decision_level t > 0 then begin
    t.seen.(Sat.Lit.var p) <- true;
    let bottom = Vec.get t.trail_lim 0 in
    for i = Vec.size t.trail - 1 downto bottom do
      let q = Vec.get t.trail i in
      let v = Sat.Lit.var q in
      if t.seen.(v) then begin
        (if t.reason.(v) == dummy_cls then core := q :: !core
         else
           Array.iter
             (fun r ->
               let w = Sat.Lit.var r in
               if t.level.(w) > 0 then t.seen.(w) <- true)
             t.reason.(v).lits);
        t.seen.(v) <- false
      end
    done;
    t.seen.(Sat.Lit.var p) <- false
  end;
  t.last_core <- Array.of_list !core

let lbd t lits =
  let tbl = Hashtbl.create 8 in
  Array.iter (fun l -> Hashtbl.replace tbl t.level.(Sat.Lit.var l) ()) lits;
  Hashtbl.length tbl

let record_learnt t lits =
  t.s_learnt_clauses <- t.s_learnt_clauses + 1;
  t.s_learnt_literals <- t.s_learnt_literals + Array.length lits;
  if Array.length lits = 1 then enqueue t lits.(0) dummy_cls
  else begin
    let c = { lits; activity = 0.; learnt = true; deleted = false } in
    bump_cla t c;
    Vec.push t.learnts c;
    Vec.push t.watches.(lits.(0)) { wc = c; wb = lits.(1) };
    Vec.push t.watches.(lits.(1)) { wc = c; wb = lits.(0) };
    enqueue t lits.(0) c
  end

let locked t c =
  Array.length c.lits > 0
  &&
  let v = Sat.Lit.var c.lits.(0) in
  t.reason.(v) == c && value_lit t c.lits.(0) = 1

let reduce_db t =
  let arr = Array.init (Vec.size t.learnts) (fun i -> Vec.get t.learnts i) in
  Array.sort (fun a b -> Float.compare a.activity b.activity) arr;
  let limit = t.cla_inc /. float_of_int (max 1 (Array.length arr)) in
  let n_half = Array.length arr / 2 in
  Array.iteri
    (fun i c ->
      if
        Array.length c.lits > 2
        && (not (locked t c))
        && (i < n_half || c.activity < limit)
      then begin
        c.deleted <- true;
        t.s_deleted <- t.s_deleted + 1
      end)
    arr;
  Vec.filter_in_place (fun c -> not c.deleted) t.learnts;
  purge_deleted_watches t

let simplify_roots t =
  match t.status with
  | Sat _ | Unsat -> ()
  | Unknown _ ->
      if decision_level t = 0 then begin
        if propagate t != dummy_cls then t.status <- Unsat
        else if Vec.size t.trail > t.simp_trail then begin
          let satisfied c = Array.exists (fun l -> value_lit t l = 1) c.lits in
          Vec.iter
            (fun c ->
              if (not c.deleted) && satisfied c then begin
                c.deleted <- true;
                t.s_deleted <- t.s_deleted + 1
              end)
            t.learnts;
          Vec.filter_in_place (fun c -> not c.deleted) t.learnts;
          (* originals satisfied at the root: deactivate them the same way
             (marking via the shared watch purge) *)
          Array.iter
            (fun ws ->
              Vec.iter
                (fun w ->
                  if (not w.wc.deleted) && (not w.wc.learnt) && satisfied w.wc then
                    w.wc.deleted <- true)
                ws)
            t.watches;
          for i = 0 to Vec.size t.trail - 1 do
            t.reason.(Sat.Lit.var (Vec.get t.trail i)) <- dummy_cls
          done;
          purge_deleted_watches t;
          t.simp_trail <- Vec.size t.trail
        end
      end

let note_conflict_for_restarts t clause_lbd =
  t.conflicts_since_restart <- t.conflicts_since_restart + 1;
  match t.config.Config.restart with
  | Config.Luby_restarts base ->
      if t.conflicts_since_restart >= Luby.restart_limit ~base t.restart_k then
        t.restart_pending <- true
  | Config.Ema_restarts { fast; slow; margin } ->
      let l = float_of_int clause_lbd in
      t.ema_fast <- t.ema_fast +. (fast *. (l -. t.ema_fast));
      t.ema_slow <- t.ema_slow +. (slow *. (l -. t.ema_slow));
      if
        t.conflicts_since_restart > 50
        && t.ema_fast > margin *. t.ema_slow
      then t.restart_pending <- true

let apply_restart t =
  t.restart_pending <- false;
  t.conflicts_since_restart <- 0;
  t.restart_k <- t.restart_k + 1;
  t.ema_fast <- 0.;
  t.ema_slow <- 0.;
  t.s_restarts <- t.s_restarts + 1;
  cancel_until t 0

let pick_branch_var t =
  let rec from_heap () =
    if Var_heap.is_empty t.heap then None
    else
      let v = Var_heap.pop_max t.heap in
      if value_var t v = 0 then Some v else from_heap ()
  in
  from_heap ()

let decide t v =
  t.s_decisions <- t.s_decisions + 1;
  let sign =
    if
      t.config.Config.random_polarity_freq > 0.
      && Stats.Rng.float t.rng 1.0 < t.config.Config.random_polarity_freq
    then Stats.Rng.bool t.rng
    else t.polarity.(v)
  in
  Vec.push t.trail_lim (Vec.size t.trail);
  enqueue t (Sat.Lit.make v sign) dummy_cls;
  if decision_level t > t.s_max_level then t.s_max_level <- decision_level t

let extract_model t = Array.init t.n (fun v -> t.assigns.(v) = 1)

let falsified_assumption t =
  let rec go i =
    if i >= Array.length t.assumptions then None
    else if value_lit t t.assumptions.(i) = -1 then Some t.assumptions.(i)
    else go (i + 1)
  in
  go 0

let step t =
  match t.status with
  | Sat m -> `Sat m
  | Unsat -> `Unsat
  | Unknown _ -> (
      t.s_iterations <- t.s_iterations + 1;
      let confl = propagate t in
      if confl != dummy_cls then begin
        t.s_conflicts <- t.s_conflicts + 1;
        if t.config.Config.heuristic = Config.Chb then
          t.chb_alpha <- Float.max 0.06 (t.chb_alpha -. 1e-6);
        if decision_level t = 0 then begin
          t.status <- Unsat;
          `Unsat
        end
        else begin
          let lits, back_level = analyze t confl in
          note_conflict_for_restarts t (lbd t lits);
          cancel_until t back_level;
          record_learnt t lits;
          decay_var_activity t;
          decay_cla_activity t;
          if float_of_int (Vec.size t.learnts) > t.max_learnts then begin
            reduce_db t;
            t.max_learnts <- t.max_learnts *. 1.3
          end;
          `Continue
        end
      end
      else if Vec.size t.trail = t.n then
        match falsified_assumption t with
        | Some l ->
            analyze_final t l;
            `Unsat_assumptions
        | None ->
            let m = extract_model t in
            t.status <- Sat m;
            `Sat m
      else begin
        if t.restart_pending then apply_restart t;
        let dl = decision_level t in
        if dl < Array.length t.assumptions then begin
          let l = t.assumptions.(dl) in
          match value_lit t l with
          | 1 ->
              Vec.push t.trail_lim (Vec.size t.trail);
              `Continue
          | -1 ->
              analyze_final t l;
              `Unsat_assumptions
          | _ ->
              t.s_decisions <- t.s_decisions + 1;
              Vec.push t.trail_lim (Vec.size t.trail);
              enqueue t l dummy_cls;
              if decision_level t > t.s_max_level then
                t.s_max_level <- decision_level t;
              `Continue
        end
        else begin
          (match pick_branch_var t with
          | Some v -> decide t v
          | None -> assert false);
          `Continue
        end
      end)

let run_search ?(max_conflicts = max_int) ?(max_iterations = max_int) t =
  simplify_roots t;
  let saturating_add a b = if a > max_int - b then max_int else a + b in
  let conflict_budget = saturating_add t.s_conflicts max_conflicts in
  let iteration_budget = saturating_add t.s_iterations max_iterations in
  let rec loop () =
    if t.s_conflicts >= conflict_budget || t.s_iterations >= iteration_budget then
      `Done (Unknown Sat.Answer.Budget)
    else
      match step t with
      | `Continue -> loop ()
      | `Sat m -> `Done (Sat m)
      | `Unsat -> `Done Unsat
      | `Unsat_assumptions -> `Unsat_assumptions
  in
  match t.status with
  | Sat m -> `Done (Sat m)
  | Unsat -> `Done Unsat
  | Unknown _ -> loop ()

let clear_assumptions t =
  if Array.length t.assumptions > 0 then begin
    cancel_until t 0;
    t.assumptions <- [||]
  end

let set_assumptions t lits =
  let arr = Array.of_list lits in
  if arr <> t.assumptions then begin
    cancel_until t 0;
    t.assumptions <- arr;
    t.last_core <- [||];
    invalidate_sat t
  end

let solve ?max_conflicts ?max_iterations t =
  clear_assumptions t;
  match run_search ?max_conflicts ?max_iterations t with
  | `Done r -> r
  | `Unsat_assumptions -> assert false

let solve_with_assumptions ?max_conflicts ?max_iterations t lits =
  match t.status with
  | Unsat -> `Unsat
  | _ -> (
      set_assumptions t lits;
      match run_search ?max_conflicts ?max_iterations t with
      | `Done (Sat m) -> `Sat m
      | `Done Unsat -> `Unsat
      | `Done (Unknown _) -> `Unknown
      | `Unsat_assumptions ->
          cancel_until t 0;
          t.status <- Unknown Sat.Answer.Budget;
          `Unsat_assumptions)

let unsat_core t = Array.to_list t.last_core

let stats t : Solver.stats =
  {
    Solver.decisions = t.s_decisions;
    propagations = t.s_propagations;
    conflicts = t.s_conflicts;
    restarts = t.s_restarts;
    learnt_clauses = t.s_learnt_clauses;
    learnt_literals = t.s_learnt_literals;
    deleted_clauses = t.s_deleted;
    iterations = t.s_iterations;
    max_decision_level = t.s_max_level;
  }
