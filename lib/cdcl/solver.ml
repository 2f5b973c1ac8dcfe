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

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_clauses : int;
  learnt_literals : int;
  deleted_clauses : int;
  iterations : int;
  max_decision_level : int;
}

(* clauses live in a flat {!Arena}; [no_cref] marks "no clause" in reasons
   and in the original-clause map *)
let no_cref = -1

(* packed watch list of one literal: entry [k] is the pair
   [(cref, blocker)] at words [2k, 2k+1].  The blocker is some literal of
   the clause other than the watched one; when it is satisfied the whole
   clause is, and propagation skips the clause without touching the arena
   (MiniSAT's blocker-literal optimisation). *)
type wlist = { mutable wdata : int array; mutable wsz : int }

let wlist_create () = { wdata = [||]; wsz = 0 }

let wlist_push w c b =
  let cap = Array.length w.wdata in
  if (2 * w.wsz) + 2 > cap then begin
    let d = Array.make (max 8 (2 * cap)) 0 in
    Array.blit w.wdata 0 d 0 (2 * w.wsz);
    w.wdata <- d
  end;
  w.wdata.(2 * w.wsz) <- c;
  w.wdata.((2 * w.wsz) + 1) <- b;
  w.wsz <- w.wsz + 1

(* the per-variable arrays are capacity-managed (length >= n) so [new_var]
   can admit variables without reallocating on every call *)
type t = {
  config : Config.t;
  rng : Stats.Rng.t;
  mutable n : int;
  mutable num_original : int;
  mutable arena : Arena.t;
  (* assignment state: +1 true, -1 false, 0 undef *)
  mutable assigns : int array;
  mutable level : int array;
  mutable reason : int array; (* cref, no_cref = no reason *)
  mutable polarity : bool array;
  trail : int Vec.t; (* literals *)
  trail_lim : int Vec.t;
  mutable qhead : int;
  mutable watches : wlist array; (* indexed by the watched literal *)
  learnts : int Vec.t; (* crefs *)
  (* decision heuristics *)
  mutable var_act : float array; (* VSIDS activity or CHB Q score *)
  mutable var_inc : float;
  mutable heap : Var_heap.t;
  (* CHB bookkeeping *)
  mutable chb_alpha : float;
  mutable chb_last_conflict : int array;
  (* clause learning *)
  mutable cla_inc : float;
  mutable seen : bool array;
  (* paper instrumentation (written only under [track_paper_stats]) *)
  mutable clause_score : float array;
  mutable visits_prop : int array;
  mutable visits_confl : int array;
  mutable original_cls : int array; (* original clause index -> cref *)
  (* priority decisions injected by the hybrid backend *)
  forced_queue : int Queue.t;
  (* incremental-solving assumptions: assumption [i] is decided at decision
     level [i+1] (or gets an empty level when already true), so every
     decision below [length assumptions] levels IS an assumption — the
     invariant [analyze_final] relies on to read a sound conflict core off
     the trail *)
  mutable assumptions : int array;
  (* conflict core of the last [`Unsat_assumptions] answer *)
  mutable last_core : int array;
  (* root-trail watermark of the last between-solves simplification *)
  mutable simp_trail : int;
  (* restart control *)
  mutable restart_pending : bool;
  mutable conflicts_since_restart : int;
  mutable restart_k : int;
  mutable ema_fast : float;
  mutable ema_slow : float;
  mutable max_learnts : float;
  (* counters *)
  mutable s_decisions : int;
  mutable s_propagations : int;
  mutable s_conflicts : int;
  mutable s_restarts : int;
  mutable s_learnt_clauses : int;
  mutable s_learnt_literals : int;
  mutable s_deleted : int;
  mutable s_iterations : int;
  mutable s_max_level : int;
  (* DRAT proof, reversed (config.log_proof) *)
  mutable proof_rev : Sat.Drat.step list;
  (* cooperative cancellation, polled between iterations by [solve] *)
  mutable terminate : unit -> bool;
  (* observability; Obs.Ctx.null (the default) makes every hook free *)
  mutable obs : Obs.Ctx.t;
  (* terminal state *)
  mutable status : result;
}

let lit_sign l = if Sat.Lit.is_pos l then 1 else -1
let value_lit t l = t.assigns.(Sat.Lit.var l) * lit_sign l
let value_var t v = t.assigns.(v)
let decision_level t = Vec.size t.trail_lim

let log_proof t step =
  if t.config.Config.log_proof then t.proof_rev <- step :: t.proof_rev

let num_vars t = t.n

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
      arena = Arena.create ~capacity:(max 64 (8 * m)) ();
      assigns = Array.make (max n 1) 0;
      level = Array.make (max n 1) 0;
      reason = Array.make (max n 1) no_cref;
      polarity = Array.make (max n 1) false;
      trail = Vec.create ~capacity:(max n 16) ~dummy:0 ();
      trail_lim = Vec.create ~dummy:0 ();
      qhead = 0;
      watches = Array.init (max (2 * n) 1) (fun _ -> wlist_create ());
      learnts = Vec.create ~dummy:no_cref ();
      var_act;
      var_inc = 1.0;
      heap = Var_heap.create n var_act;
      chb_alpha = 0.4;
      chb_last_conflict = Array.make (max n 1) 0;
      cla_inc = 1.0;
      seen = Array.make (max n 1) false;
      clause_score = Array.make (max m 1) 1.0;
      visits_prop = Array.make (max m 1) 0;
      visits_confl = Array.make (max m 1) 0;
      original_cls = Array.make (max m 1) no_cref;
      forced_queue = Queue.create ();
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
      proof_rev = [];
      terminate = (fun () -> false);
      obs = Obs.Ctx.null;
      status = Unknown Sat.Answer.Budget;
    }
  in
  (* install original clauses *)
  let pending_units = ref [] in
  Sat.Cnf.iter_clauses
    (fun i c ->
      if Sat.Clause.is_tautology c then ()
      else
        let lits = Sat.Clause.to_array c in
        match Array.length lits with
        | 0 ->
            log_proof t (Sat.Drat.Add []);
            t.status <- Unsat
        | 1 -> pending_units := (i, lits.(0)) :: !pending_units
        | _ ->
            let cref = Arena.alloc t.arena ~learnt:false ~origin:i lits in
            t.original_cls.(i) <- cref;
            wlist_push t.watches.(lits.(0)) cref lits.(1);
            wlist_push t.watches.(lits.(1)) cref lits.(0))
    f;
  (* enqueue unit clauses at level 0 *)
  List.iter
    (fun (_, l) ->
      if not (is_decided_status t.status) then
        match value_lit t l with
        | 1 -> ()
        | -1 ->
            log_proof t (Sat.Drat.Add []);
            t.status <- Unsat
        | _ ->
            t.assigns.(Sat.Lit.var l) <- lit_sign l;
            t.level.(Sat.Lit.var l) <- 0;
            Vec.push t.trail l)
    (List.rev !pending_units);
  t

(* ------------------------------------------------------------------ *)
(* capacity growth (incremental API)                                    *)

let grow_int a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_var_capacity t n' =
  let cap0 = Array.length t.assigns in
  (* the heap can be smaller than the other arrays (created with exactly
     [n] slots while arrays use [max n 1]) — grow when either is short *)
  if n' > cap0 || n' > Var_heap.capacity t.heap then begin
    let cap = max n' (max 16 (2 * cap0)) in
    t.assigns <- grow_int t.assigns cap 0;
    t.level <- grow_int t.level cap 0;
    t.chb_last_conflict <- grow_int t.chb_last_conflict cap 0;
    t.reason <- grow_int t.reason cap no_cref;
    (let b = Array.make cap false in
     Array.blit t.polarity 0 b 0 cap0;
     t.polarity <- b);
    (let b = Array.make cap false in
     Array.blit t.seen 0 b 0 cap0;
     t.seen <- b);
    (let old = t.watches in
     t.watches <-
       Array.init (2 * cap) (fun i ->
           if i < Array.length old then old.(i) else wlist_create ()));
    let act = Array.make cap 0. in
    Array.blit t.var_act 0 act 0 cap0;
    t.var_act <- act;
    t.heap <- Var_heap.grow t.heap cap act
  end

let ensure_clause_capacity t m' =
  let cap0 = Array.length t.clause_score in
  if m' > cap0 then begin
    let cap = max m' (max 16 (2 * cap0)) in
    (let b = Array.make cap 1.0 in
     Array.blit t.clause_score 0 b 0 cap0;
     t.clause_score <- b);
    t.visits_prop <- grow_int t.visits_prop cap 0;
    t.visits_confl <- grow_int t.visits_confl cap 0;
    t.original_cls <- grow_int t.original_cls cap no_cref
  end

let invalidate_sat t =
  match t.status with Sat _ -> t.status <- Unknown Sat.Answer.Budget | _ -> ()

let new_var t =
  let v = t.n in
  ensure_var_capacity t (v + 1);
  t.n <- v + 1;
  t.assigns.(v) <- 0;
  t.level.(v) <- 0;
  t.reason.(v) <- no_cref;
  t.polarity.(v) <- false;
  t.var_act.(v) <- 0.;
  t.chb_last_conflict.(v) <- 0;
  t.seen.(v) <- false;
  Var_heap.insert t.heap v;
  (* a cached Sat model does not cover the new variable *)
  invalidate_sat t;
  v

(* ------------------------------------------------------------------ *)
(* activity management                                                  *)

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

let bump_var t v amount = bump_var_internal t v (amount *. t.var_inc)

let decay_var_activity t =
  match t.config.Config.heuristic with
  | Config.Vsids -> t.var_inc <- t.var_inc /. var_decay
  | Config.Chb -> ()

let chb_update t v participated =
  (* conflict-history-based bandit reward (Liang et al., simplified) *)
  let multiplier = if participated then 1.0 else 0.9 in
  let age = float_of_int (t.s_conflicts - t.chb_last_conflict.(v) + 1) in
  let reward = multiplier /. age in
  t.var_act.(v) <- ((1. -. t.chb_alpha) *. t.var_act.(v)) +. (t.chb_alpha *. reward);
  Var_heap.notify_increase t.heap v

let bump_cla t c =
  let a = Arena.activity t.arena c +. t.cla_inc in
  Arena.set_activity t.arena c a;
  if a > 1e20 then begin
    Vec.iter
      (fun cl -> Arena.set_activity t.arena cl (Arena.activity t.arena cl *. 1e-20))
      t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let decay_cla_activity t = t.cla_inc <- t.cla_inc /. clause_decay

(* paper §IV-A: activity score of clauses involved in conflict resolution *)
let bump_clause_score t c =
  let o = Arena.origin t.arena c in
  if o >= 0 then begin
    t.clause_score.(o) <- t.clause_score.(o) +. 1.0;
    t.visits_confl.(o) <- t.visits_confl.(o) + 1
  end

(* ------------------------------------------------------------------ *)
(* assignment & propagation                                             *)

let enqueue t l reason =
  let v = Sat.Lit.var l in
  t.assigns.(v) <- lit_sign l;
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  Vec.push t.trail l;
  if reason <> no_cref then begin
    t.s_propagations <- t.s_propagations + 1;
    if t.config.Config.track_paper_stats then begin
      let o = Arena.origin t.arena reason in
      if o >= 0 then t.visits_prop.(o) <- t.visits_prop.(o) + 1
    end
  end

(* level-0 fact installed by the incremental API (add_clause / import);
   only sound when the trail is at decision level 0 *)
let enqueue_root t l =
  let v = Sat.Lit.var l in
  t.assigns.(v) <- lit_sign l;
  t.level.(v) <- 0;
  t.reason.(v) <- no_cref;
  Vec.push t.trail l

(* The propagation hot loop.  Deliberately low-level: literals are raw ints
   ([Sat.Lit] is concrete: lit = 2·var + sign bit, negate = lxor 1), clause
   words are read straight out of the arena array, watch entries out of the
   packed pair array, all via unsafe accessors — the loop allocates nothing
   and every bound is established by the surrounding invariants.  Watch
   lists are compacted in place; a watcher whose blocker is satisfied is
   kept without touching the clause at all.  Returns the conflicting cref
   or [no_cref]. *)
let propagate t =
  let conflict = ref no_cref in
  let assigns = t.assigns in
  (* stable across the loop: propagation never allocates clauses *)
  let ar = Arena.data t.arena in
  let off = Arena.lits_offset in
  let shift = Arena.size_shift in
  let track = t.config.Config.track_paper_stats in
  while !conflict = no_cref && t.qhead < Vec.size t.trail do
    let p = Vec.unsafe_get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    let not_p = p lxor 1 in
    let ws = Array.unsafe_get t.watches not_p in
    let wd = ws.wdata in
    let n_ws = ws.wsz in
    let i = ref 0 and j = ref 0 in
    while !i < n_ws do
      let c = Array.unsafe_get wd (2 * !i) in
      let blocker = Array.unsafe_get wd ((2 * !i) + 1) in
      incr i;
      let bval =
        Array.unsafe_get assigns (blocker lsr 1) * (1 - (2 * (blocker land 1)))
      in
      if bval = 1 then begin
        (* blocker satisfied: the clause is satisfied, keep the watch *)
        Array.unsafe_set wd (2 * !j) c;
        Array.unsafe_set wd ((2 * !j) + 1) blocker;
        incr j
      end
      else begin
        if track then begin
          let o = Array.unsafe_get ar (c + 1) in
          if o >= 0 then t.visits_prop.(o) <- t.visits_prop.(o) + 1
        end;
        let base = c + off in
        (* ensure the false literal is at position 1 *)
        if Array.unsafe_get ar base = not_p then begin
          Array.unsafe_set ar base (Array.unsafe_get ar (base + 1));
          Array.unsafe_set ar (base + 1) not_p
        end;
        let first = Array.unsafe_get ar base in
        let fval =
          if first = blocker then bval
          else Array.unsafe_get assigns (first lsr 1) * (1 - (2 * (first land 1)))
        in
        if fval = 1 then begin
          (* clause already satisfied; keep, refreshing the blocker *)
          Array.unsafe_set wd (2 * !j) c;
          Array.unsafe_set wd ((2 * !j) + 1) first;
          incr j
        end
        else begin
          (* look for a new literal to watch *)
          let size = Array.unsafe_get ar c lsr shift in
          let k = ref 2 and found = ref false in
          while (not !found) && !k < size do
            let q = Array.unsafe_get ar (base + !k) in
            if Array.unsafe_get assigns (q lsr 1) * (1 - (2 * (q land 1))) <> -1
            then found := true
            else incr k
          done;
          if !found then begin
            let newl = Array.unsafe_get ar (base + !k) in
            Array.unsafe_set ar (base + 1) newl;
            Array.unsafe_set ar (base + !k) not_p;
            (* [newl] is non-false while [not_p] is false, so this push can
               never target [ws], the list being compacted *)
            wlist_push (Array.unsafe_get t.watches newl) c first
          end
          else begin
            (* unit or conflicting *)
            Array.unsafe_set wd (2 * !j) c;
            Array.unsafe_set wd ((2 * !j) + 1) first;
            incr j;
            if fval = -1 then begin
              conflict := c;
              t.qhead <- Vec.size t.trail;
              (* copy the remaining watches back *)
              while !i < n_ws do
                Array.unsafe_set wd (2 * !j) (Array.unsafe_get wd (2 * !i));
                Array.unsafe_set wd ((2 * !j) + 1)
                  (Array.unsafe_get wd ((2 * !i) + 1));
                incr i;
                incr j
              done
            end
            else enqueue t first c
          end
        end
      end
    done;
    ws.wsz <- !j
  done;
  !conflict

(* ------------------------------------------------------------------ *)
(* arena garbage collection                                             *)

(* Deleted clauses are purged from every watch list at the point of
   deletion (reduce_db / simplify_roots), so at GC time the watch lists,
   the trail reasons (always locked, hence never deleted), the learnt list
   and the live original map hold exactly the live crefs: relocate each
   through the forwarding map and swap arenas. *)
let garbage_collect t =
  let from = t.arena in
  let live = Arena.words from - Arena.wasted from in
  let into = Arena.create ~capacity:(max 64 live) () in
  Array.iter
    (fun w ->
      for k = 0 to w.wsz - 1 do
        w.wdata.(2 * k) <- Arena.reloc from ~into w.wdata.(2 * k)
      done)
    t.watches;
  for i = 0 to Vec.size t.trail - 1 do
    let v = Sat.Lit.var (Vec.get t.trail i) in
    let r = t.reason.(v) in
    if r <> no_cref then t.reason.(v) <- Arena.reloc from ~into r
  done;
  for i = 0 to Vec.size t.learnts - 1 do
    Vec.set t.learnts i (Arena.reloc from ~into (Vec.get t.learnts i))
  done;
  for i = 0 to t.num_original - 1 do
    let c = t.original_cls.(i) in
    if c <> no_cref then t.original_cls.(i) <- Arena.reloc from ~into c
  done;
  t.arena <- into

let maybe_gc t =
  let wasted = Arena.wasted t.arena in
  if
    wasted > 0
    && float_of_int wasted
       > t.config.Config.garbage_frac *. float_of_int (Arena.words t.arena)
  then garbage_collect t

(* drop watchers of deleted clauses, preserving the order of the live ones
   (count-equivalent to dropping them lazily inside [propagate], and it
   keeps the hot loop free of deleted checks) *)
let purge_deleted_watches t =
  let ar = t.arena in
  Array.iter
    (fun w ->
      let j = ref 0 in
      for i = 0 to w.wsz - 1 do
        let c = w.wdata.(2 * i) in
        if not (Arena.deleted ar c) then begin
          w.wdata.(2 * !j) <- c;
          w.wdata.((2 * !j) + 1) <- w.wdata.((2 * i) + 1);
          incr j
        end
      done;
      w.wsz <- !j)
    t.watches

(* ------------------------------------------------------------------ *)
(* backtracking                                                         *)

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Vec.get t.trail_lim lvl in
    (* hoisted out of the unassignment loop: a per-solver constant, and
       the test is a variant comparison *)
    let chb = t.config.Config.heuristic = Config.Chb in
    for i = Vec.size t.trail - 1 downto bound do
      let l = Vec.unsafe_get t.trail i in
      let v = Sat.Lit.var l in
      if chb then chb_update t v (t.chb_last_conflict.(v) = t.s_conflicts);
      t.assigns.(v) <- 0;
      t.reason.(v) <- no_cref;
      t.polarity.(v) <- Sat.Lit.is_pos l;
      Var_heap.insert t.heap v
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim lvl;
    t.qhead <- Vec.size t.trail
  end

(* ------------------------------------------------------------------ *)
(* incremental clause addition                                          *)

let add_clause t lits =
  match t.status with
  | Unsat -> () (* the instance is already refuted; nothing can relax that *)
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
      (* root-level reduction: drop false literals, detect satisfied /
         tautological clauses, dedupe *)
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
      (* every added clause consumes an original index, installed or not, so
         instrumentation indices match the caller's clause numbering *)
      let i = t.num_original in
      ensure_clause_capacity t (i + 1);
      t.num_original <- i + 1;
      t.clause_score.(i) <- 1.0;
      t.visits_prop.(i) <- 0;
      t.visits_confl.(i) <- 0;
      if not (!taut || !sat_root) then begin
        match List.rev !kept with
        | [] ->
            log_proof t (Sat.Drat.Add []);
            t.status <- Unsat
        | [ l ] -> enqueue_root t l
        | ls ->
            let arr = Array.of_list ls in
            let cref = Arena.alloc t.arena ~learnt:false ~origin:i arr in
            t.original_cls.(i) <- cref;
            wlist_push t.watches.(arr.(0)) cref arr.(1);
            wlist_push t.watches.(arr.(1)) cref arr.(0)
      end

(* ------------------------------------------------------------------ *)
(* conflict analysis (first UIP)                                        *)

let lit_redundant t l =
  (* non-recursive approximation of MiniSAT's minimisation: the literal is
     redundant if its reason exists and all antecedent literals are already
     seen or assigned at level 0 *)
  let v = Sat.Lit.var l in
  let r = t.reason.(v) in
  r <> no_cref
  &&
  let ar = t.arena in
  let sz = Arena.size ar r in
  let rec ok i =
    i >= sz
    ||
    let w = Sat.Lit.var (Arena.lit ar r i) in
    (w = v || t.seen.(w) || t.level.(w) = 0) && ok (i + 1)
  in
  ok 0

let analyze t conflict =
  let ar = t.arena in
  let track = t.config.Config.track_paper_stats in
  let learnt = ref [] in
  let path_c = ref 0 in
  let p = ref (-1) in
  let index = ref (Vec.size t.trail - 1) in
  let c = ref conflict in
  let dl = decision_level t in
  let continue = ref true in
  while !continue do
    if Arena.learnt ar !c then bump_cla t !c;
    if track then bump_clause_score t !c;
    let sz = Arena.size ar !c in
    for idx = 0 to sz - 1 do
      let q = Arena.lit ar !c idx in
      let v = Sat.Lit.var q in
      if (!p = -1 || v <> Sat.Lit.var !p) && (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        (match t.config.Config.heuristic with
        | Config.Vsids -> bump_var_internal t v t.var_inc
        | Config.Chb -> t.chb_last_conflict.(v) <- t.s_conflicts);
        if t.level.(v) >= dl then incr path_c else learnt := q :: !learnt
      end
    done;
    (* walk the trail back to the next marked literal *)
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
  (* clause minimisation *)
  let tail = List.filter (fun l -> not (lit_redundant t l)) !learnt in
  (* clear the seen markers *)
  List.iter (fun l -> t.seen.(Sat.Lit.var l) <- false) !learnt;
  (* compute backjump level & put a highest-level literal second *)
  let tail = List.sort (fun a b -> compare t.level.(Sat.Lit.var b) t.level.(Sat.Lit.var a)) tail in
  let back_level = match tail with [] -> 0 | l :: _ -> t.level.(Sat.Lit.var l) in
  (Array.of_list (uip :: tail), back_level)

(* final-conflict analysis (MiniSAT analyzeFinal): [p] is a falsified
   assumption; walk the implication graph of [¬p] down the trail and
   collect the assumptions it rests on.  Sound because of the level-prefix
   invariant: every decision on the trail is itself an assumption. *)
let analyze_final t p =
  let core = ref [ p ] in
  if decision_level t > 0 then begin
    let ar = t.arena in
    t.seen.(Sat.Lit.var p) <- true;
    let bottom = Vec.get t.trail_lim 0 in
    for i = Vec.size t.trail - 1 downto bottom do
      let q = Vec.get t.trail i in
      let v = Sat.Lit.var q in
      if t.seen.(v) then begin
        (* [q] can never be [p] itself (p is falsified, so the trail holds
           its negation) — even when [v = var p] the decision found here is
           the {e earlier} assumption contradicting [p], and belongs in the
           core *)
        (let r = t.reason.(v) in
         if r = no_cref then core := q :: !core
         else
           for idx = 0 to Arena.size ar r - 1 do
             let w = Sat.Lit.var (Arena.lit ar r idx) in
             if t.level.(w) > 0 then t.seen.(w) <- true
           done);
        t.seen.(v) <- false
      end
    done;
    t.seen.(Sat.Lit.var p) <- false
  end;
  t.last_core <- Array.of_list !core

(* lbd of a learnt clause: number of distinct decision levels *)
let lbd t lits =
  let tbl = Hashtbl.create 8 in
  Array.iter (fun l -> Hashtbl.replace tbl t.level.(Sat.Lit.var l) ()) lits;
  Hashtbl.length tbl

let record_learnt t lits =
  if not (Obs.Ctx.is_null t.obs) then
    Obs.Metrics.observe t.obs "cdcl_learnt_clause_size"
      (float_of_int (Array.length lits));
  log_proof t (Sat.Drat.Add (Array.to_list lits));
  t.s_learnt_clauses <- t.s_learnt_clauses + 1;
  t.s_learnt_literals <- t.s_learnt_literals + Array.length lits;
  if Array.length lits = 1 then enqueue t lits.(0) no_cref
  else begin
    let c = Arena.alloc t.arena ~learnt:true ~origin:(-1) lits in
    bump_cla t c;
    Vec.push t.learnts c;
    wlist_push t.watches.(lits.(0)) c lits.(1);
    wlist_push t.watches.(lits.(1)) c lits.(0);
    enqueue t lits.(0) c
  end

let locked t c =
  let l0 = Arena.lit t.arena c 0 in
  let v = Sat.Lit.var l0 in
  t.reason.(v) = c && value_lit t l0 = 1

let reduce_db t =
  (* keep binary, locked and the more active half *)
  let ar = t.arena in
  let arr = Array.init (Vec.size t.learnts) (fun i -> Vec.get t.learnts i) in
  Array.sort (fun a b -> Float.compare (Arena.activity ar a) (Arena.activity ar b)) arr;
  let limit = t.cla_inc /. float_of_int (max 1 (Array.length arr)) in
  let n_half = Array.length arr / 2 in
  Array.iteri
    (fun i c ->
      if
        Arena.size ar c > 2
        && (not (locked t c))
        && (i < n_half || Arena.activity ar c < limit)
      then begin
        log_proof t (Sat.Drat.Delete (Arena.lit_list ar c));
        Arena.delete ar c;
        t.s_deleted <- t.s_deleted + 1
      end)
    arr;
  Vec.filter_in_place (fun c -> not (Arena.deleted ar c)) t.learnts;
  purge_deleted_watches t;
  maybe_gc t

(* ------------------------------------------------------------------ *)
(* root-level simplification (between incremental solves)               *)

let simplify_roots t =
  match t.status with
  | Sat _ | Unsat -> ()
  | Unknown _ ->
      if decision_level t = 0 then begin
        if propagate t <> no_cref then begin
          log_proof t (Sat.Drat.Add []);
          t.status <- Unsat
        end
        else if Vec.size t.trail > t.simp_trail then begin
          (* the root trail grew since the last pass: remove clauses now
             satisfied at level 0 (learnt deletions logged for DRAT;
             original deletions are just deactivation — the proof checker
             keeps the formula) *)
          let ar = t.arena in
          (* a root literal propagated by a learnt clause loses its reason
             below; log it as a unit first so the DRAT checker keeps it *)
          for i = t.simp_trail to Vec.size t.trail - 1 do
            let l = Vec.get t.trail i in
            let r = t.reason.(Sat.Lit.var l) in
            if r <> no_cref && Arena.learnt ar r then log_proof t (Sat.Drat.Add [ l ])
          done;
          let satisfied c =
            let sz = Arena.size ar c in
            let rec go i = i < sz && (value_lit t (Arena.lit ar c i) = 1 || go (i + 1)) in
            go 0
          in
          Vec.iter
            (fun c ->
              if (not (Arena.deleted ar c)) && satisfied c then begin
                log_proof t (Sat.Drat.Delete (Arena.lit_list ar c));
                Arena.delete ar c;
                t.s_deleted <- t.s_deleted + 1
              end)
            t.learnts;
          Vec.filter_in_place (fun c -> not (Arena.deleted ar c)) t.learnts;
          for i = 0 to t.num_original - 1 do
            let c = t.original_cls.(i) in
            if c <> no_cref && (not (Arena.deleted ar c)) && satisfied c then begin
              Arena.delete ar c;
              t.original_cls.(i) <- no_cref
            end
          done;
          (* root assignments are facts: drop their reasons, which may
             point at clauses deleted above *)
          for i = 0 to Vec.size t.trail - 1 do
            t.reason.(Sat.Lit.var (Vec.get t.trail i)) <- no_cref
          done;
          purge_deleted_watches t;
          t.simp_trail <- Vec.size t.trail;
          maybe_gc t
        end
      end

(* ------------------------------------------------------------------ *)
(* restarts                                                             *)

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

(* ------------------------------------------------------------------ *)
(* decisions                                                            *)

let pick_branch_var t =
  (* priority queue injected by the hybrid backend first *)
  let rec from_forced () =
    if Queue.is_empty t.forced_queue then None
    else
      let v = Queue.pop t.forced_queue in
      if value_var t v = 0 then Some v else from_forced ()
  in
  match from_forced () with
  | Some v -> Some v
  | None ->
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
  enqueue t (Sat.Lit.make v sign) no_cref;
  if decision_level t > t.s_max_level then t.s_max_level <- decision_level t

let extract_model t = Array.init t.n (fun v -> t.assigns.(v) = 1)

(* ------------------------------------------------------------------ *)
(* main loop                                                            *)

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
      if confl <> no_cref then begin
        t.s_conflicts <- t.s_conflicts + 1;
        if t.config.Config.heuristic = Config.Chb then
          t.chb_alpha <- Float.max 0.06 (t.chb_alpha -. 1e-6);
        if decision_level t = 0 then begin
          log_proof t (Sat.Drat.Add []);
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
          (* assumptions occupy the first decision levels, one each, in
             order (the level-prefix invariant behind [analyze_final]) *)
          let l = t.assumptions.(dl) in
          match value_lit t l with
          | 1 ->
              (* already true: open an empty level so assumption index
                 keeps mapping onto decision level *)
              Vec.push t.trail_lim (Vec.size t.trail);
              `Continue
          | -1 ->
              analyze_final t l;
              `Unsat_assumptions
          | _ ->
              t.s_decisions <- t.s_decisions + 1;
              Vec.push t.trail_lim (Vec.size t.trail);
              enqueue t l no_cref;
              if decision_level t > t.s_max_level then
                t.s_max_level <- decision_level t;
              `Continue
        end
        else begin
          (match pick_branch_var t with
          | Some v -> decide t v
          | None ->
              (* all remaining vars assigned at level 0 but trail < n can
                 not happen: heap holds every unassigned var *)
              assert false);
          `Continue
        end
      end)

let run_search ?(max_conflicts = max_int) ?(max_iterations = max_int) t =
  simplify_roots t;
  let saturating_add a b = if a > max_int - b then max_int else a + b in
  (* budgets are per-call deltas over the cumulative counters, so resuming
     after an [Unknown] grants a fresh budget rather than returning
     immediately *)
  let conflict_budget = saturating_add t.s_conflicts max_conflicts in
  let iteration_budget = saturating_add t.s_iterations max_iterations in
  let rec loop polls =
    if t.s_conflicts >= conflict_budget || t.s_iterations >= iteration_budget then
      `Done (Unknown Sat.Answer.Budget)
    else if polls land 127 = 0 && t.terminate () then `Done (Unknown Sat.Answer.Cancelled)
    else
      match step t with
      | `Continue -> loop (polls + 1)
      | `Sat m -> `Done (Sat m)
      | `Unsat -> `Done Unsat
      | `Unsat_assumptions -> `Unsat_assumptions
  in
  match t.status with
  | Sat m -> `Done (Sat m)
  | Unsat -> `Done Unsat
  | Unknown _ -> loop 0

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
    (* a cached Sat answer may violate the new assumptions *)
    invalidate_sat t
  end

let solve ?max_conflicts ?max_iterations t =
  (* a plain solve is an assumption-free solve: leftover assumption
     decisions from a previous assumption solve must not constrain it *)
  clear_assumptions t;
  match run_search ?max_conflicts ?max_iterations t with
  | `Done r -> r
  | `Unsat_assumptions -> assert false (* no assumptions installed *)

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

(* ------------------------------------------------------------------ *)
(* learnt-clause interchange                                            *)

let export_learnts t =
  (* short clauses only, in a bounded snapshot: a sibling solver imports
     them all *)
  let max_len = 4 and max_clauses = 512 in
  (* root facts first: the strongest, cheapest clauses to hand a sibling
     solver working on the same formula *)
  let ar = t.arena in
  let root_end =
    if decision_level t = 0 then Vec.size t.trail else Vec.get t.trail_lim 0
  in
  let count = ref 0 in
  let units = ref [] in
  for i = root_end - 1 downto 0 do
    if !count < max_clauses then begin
      units := [| Vec.get t.trail i |] :: !units;
      incr count
    end
  done;
  (* then the most active short learnt clauses *)
  let arr = Array.init (Vec.size t.learnts) (Vec.get t.learnts) in
  Array.sort (fun a b -> Float.compare (Arena.activity ar b) (Arena.activity ar a)) arr;
  let cls = ref [] in
  Array.iter
    (fun c ->
      if
        (not (Arena.deleted ar c))
        && Arena.size ar c <= max_len
        && !count < max_clauses
      then begin
        cls := Arena.lits ar c :: !cls;
        incr count
      end)
    arr;
  !units @ List.rev !cls

let import_clauses t clauses =
  (* the caller's contract: every clause is a logical consequence of this
     solver's formula (learnt by a solver over the same or a subset clause
     set).  Refused under proof logging — a foreign learnt clause has no
     RUP derivation at this point in the log, so importing would break
     {!proof} checkability. *)
  if t.config.Config.log_proof then 0
  else
    match t.status with
    | Unsat -> 0
    | _ ->
        invalidate_sat t;
        cancel_until t 0;
        let imported = ref 0 in
        List.iter
          (fun lits ->
            if
              (match t.status with Unsat -> false | _ -> true)
              && Array.for_all (fun l -> Sat.Lit.var l < t.n) lits
            then begin
              let taut = ref false and sat_root = ref false in
              let kept = ref [] in
              Array.iter
                (fun l ->
                  if not (!taut || !sat_root) then
                    match value_lit t l with
                    | 1 -> sat_root := true
                    | -1 -> ()
                    | _ ->
                        if List.exists (fun k -> k = Sat.Lit.negate l) !kept then
                          taut := true
                        else if not (List.mem l !kept) then kept := l :: !kept)
                lits;
              if not (!taut || !sat_root) then
                match List.rev !kept with
                | [] -> t.status <- Unsat
                | [ l ] ->
                    enqueue_root t l;
                    incr imported
                | ls ->
                    let arr = Array.of_list ls in
                    let c = Arena.alloc t.arena ~learnt:true ~origin:(-1) arr in
                    bump_cla t c;
                    Vec.push t.learnts c;
                    wlist_push t.watches.(arr.(0)) c arr.(1);
                    wlist_push t.watches.(arr.(1)) c arr.(0);
                    incr imported
            end)
          clauses;
        !imported

(* ------------------------------------------------------------------ *)
(* accessors                                                            *)

let stats t =
  {
    decisions = t.s_decisions;
    propagations = t.s_propagations;
    conflicts = t.s_conflicts;
    restarts = t.s_restarts;
    learnt_clauses = t.s_learnt_clauses;
    learnt_literals = t.s_learnt_literals;
    deleted_clauses = t.s_deleted;
    iterations = t.s_iterations;
    max_decision_level = t.s_max_level;
  }

let clause_activity t i = t.clause_score.(i)
let clause_visits t i = (t.visits_prop.(i), t.visits_confl.(i))
let set_polarity t v b = t.polarity.(v) <- b
let prioritize_vars t vars = List.iter (fun v -> Queue.push v t.forced_queue) vars

let proof t = if t.config.Config.log_proof then Some (List.rev t.proof_rev) else None

let is_decided t = match t.status with Unknown _ -> false | _ -> true

let set_terminate t f = t.terminate <- f
let set_obs t obs = t.obs <- obs

let arena_words t = Arena.words t.arena
let arena_wasted t = Arena.wasted t.arena

let flush_obs t =
  let obs = t.obs in
  Obs.Metrics.count obs "cdcl_conflicts_total" t.s_conflicts;
  Obs.Metrics.count obs "cdcl_propagations_total" t.s_propagations;
  Obs.Metrics.count obs "cdcl_decisions_total" t.s_decisions;
  Obs.Metrics.count obs "cdcl_restarts_total" t.s_restarts;
  Obs.Metrics.count obs "cdcl_learnt_clauses_total" t.s_learnt_clauses;
  Obs.Metrics.count obs "cdcl_deleted_clauses_total" t.s_deleted
