(* The flat clause arena (Cdcl.Arena + the rewritten Solver core):
   differential equivalence against the frozen pre-arena engine
   (Cdcl.Reference), garbage-collection relocation under incremental use,
   learnt interchange across compaction, DRAT proofs surviving GC, and the
   Vec unsafe accessors used by the hot loops. *)

module Solver = Cdcl.Solver
module Reference = Cdcl.Reference
module Config = Cdcl.Config
module Vec = Cdcl.Vec

(* tiny threshold: almost every deletion triggers a compaction, so any
   GC-induced behaviour change would show up as a stats mismatch *)
let gc_heavy config = { config with Config.garbage_frac = 0.01 }

let answer_kind = function
  | Solver.Sat _ -> "sat"
  | Solver.Unsat -> "unsat"
  | Solver.Unknown _ -> "unknown"

let check_stats_equal name (a : Solver.stats) (b : Solver.stats) =
  Alcotest.(check int) (name ^ ": decisions") b.Solver.decisions a.Solver.decisions;
  Alcotest.(check int) (name ^ ": propagations") b.Solver.propagations a.Solver.propagations;
  Alcotest.(check int) (name ^ ": conflicts") b.Solver.conflicts a.Solver.conflicts;
  Alcotest.(check int) (name ^ ": restarts") b.Solver.restarts a.Solver.restarts;
  Alcotest.(check int) (name ^ ": learnt clauses") b.Solver.learnt_clauses a.Solver.learnt_clauses;
  Alcotest.(check int) (name ^ ": learnt literals") b.Solver.learnt_literals a.Solver.learnt_literals;
  Alcotest.(check int) (name ^ ": deleted clauses") b.Solver.deleted_clauses a.Solver.deleted_clauses;
  Alcotest.(check int) (name ^ ": iterations") b.Solver.iterations a.Solver.iterations;
  Alcotest.(check int) (name ^ ": max level") b.Solver.max_decision_level a.Solver.max_decision_level

let check_same_answer name a b =
  Alcotest.(check string) (name ^ ": answer") (answer_kind b) (answer_kind a);
  match (a, b) with
  | Solver.Sat m1, Solver.Sat m2 ->
      Alcotest.(check (array bool)) (name ^ ": identical model") m2 m1
  | _ -> ()

(* ---- arena unit behaviour ---- *)

let arena_basics () =
  let a = Cdcl.Arena.create ~capacity:16 () in
  let l i s = Sat.Lit.make i s in
  let c1 = Cdcl.Arena.alloc a ~learnt:false ~origin:7 [| l 0 true; l 1 false; l 2 true |] in
  let c2 = Cdcl.Arena.alloc a ~learnt:true ~origin:(-1) [| l 3 true; l 4 true |] in
  Alcotest.(check int) "c1 size" 3 (Cdcl.Arena.size a c1);
  Alcotest.(check int) "c2 size" 2 (Cdcl.Arena.size a c2);
  Alcotest.(check int) "c1 origin" 7 (Cdcl.Arena.origin a c1);
  Alcotest.(check bool) "c1 not learnt" false (Cdcl.Arena.learnt a c1);
  Alcotest.(check bool) "c2 learnt" true (Cdcl.Arena.learnt a c2);
  Alcotest.(check int) "c1 lit 1" (l 1 false) (Cdcl.Arena.lit a c1 1);
  Cdcl.Arena.set_activity a c2 2.5;
  Alcotest.(check (float 0.)) "activity" 2.5 (Cdcl.Arena.activity a c2);
  (* force growth past the initial capacity *)
  let big = Array.init 64 (fun i -> l i (i mod 2 = 0)) in
  let c3 = Cdcl.Arena.alloc a ~learnt:true ~origin:(-1) big in
  Alcotest.(check int) "c3 size survives growth" 64 (Cdcl.Arena.size a c3);
  Alcotest.(check int) "c1 intact after growth" (l 1 false) (Cdcl.Arena.lit a c1 1);
  Cdcl.Arena.delete a c1;
  Alcotest.(check bool) "c1 deleted" true (Cdcl.Arena.deleted a c1);
  Alcotest.(check int) "wasted words" (3 + Cdcl.Arena.lits_offset) (Cdcl.Arena.wasted a)

let arena_reloc_forwarding () =
  let a = Cdcl.Arena.create () in
  let l i = Sat.Lit.make i true in
  let c1 = Cdcl.Arena.alloc a ~learnt:false ~origin:0 [| l 0; l 1; l 2 |] in
  let c2 = Cdcl.Arena.alloc a ~learnt:true ~origin:(-1) [| l 3; l 4 |] in
  Cdcl.Arena.set_activity a c2 9.0;
  Cdcl.Arena.delete a c1;
  let into = Cdcl.Arena.create () in
  let c2' = Cdcl.Arena.reloc a ~into c2 in
  Alcotest.(check int) "compacted to front" 0 c2';
  Alcotest.(check int) "second touch forwards" c2' (Cdcl.Arena.reloc a ~into c2);
  Alcotest.(check int) "lits copied" (l 4) (Cdcl.Arena.lit into c2' 1);
  Alcotest.(check (float 0.)) "activity copied" 9.0 (Cdcl.Arena.activity into c2');
  Alcotest.(check bool) "learnt bit copied" true (Cdcl.Arena.learnt into c2');
  Alcotest.(check int) "no waste in new arena" 0 (Cdcl.Arena.wasted into)

(* ---- differential fuzz: arena solver vs frozen pre-arena solver ---- *)

let differential_one config name f =
  let s = Solver.create ~config f in
  let r = Reference.create ~config f in
  let sa = Solver.solve s in
  let ra = Reference.solve r in
  check_same_answer name sa ra;
  check_stats_equal name (Solver.stats s) (Reference.stats r)

let differential_fixed () =
  let cfgs =
    [
      ("vsids", Config.minisat_like);
      ("chb", Config.kissat_like);
      ("vsids+gc", gc_heavy Config.minisat_like);
    ]
  in
  List.iter
    (fun (cname, config) ->
      for seed = 1 to 6 do
        let r = Testutil.rng (100 * seed) in
        let f = Testutil.random_cnf r ~n:30 ~m:126 ~k:3 in
        differential_one config (Printf.sprintf "%s #%d" cname seed) f
      done;
      (* a harder planted-SAT instance near the phase transition *)
      let f = Workload.Uniform.uf (Testutil.rng 4242) 100 in
      differential_one config (cname ^ " uf100") f)
    cfgs

let differential_qcheck =
  QCheck.Test.make ~count:60 ~name:"arena solver == pre-arena solver"
    Testutil.small_cnf_arb (fun f ->
      List.for_all
        (fun config ->
          let s = Solver.create ~config f in
          let r = Reference.create ~config f in
          let sa = Solver.solve s in
          let ra = Reference.solve r in
          answer_kind sa = answer_kind ra
          && Solver.stats s = Reference.stats r)
        [ Config.minisat_like; Config.kissat_like; gc_heavy Config.minisat_like ])

let differential_budget_resume () =
  (* interrupted searches must diverge nowhere either: resume in lockstep *)
  let f = Workload.Uniform.uf (Testutil.rng 7) 120 in
  let config = gc_heavy Config.minisat_like in
  let s = Solver.create ~config f in
  let r = Reference.create ~config f in
  let rounds = ref 0 in
  let continue = ref true in
  while !continue && !rounds < 200 do
    incr rounds;
    let sa = Solver.solve ~max_conflicts:50 s in
    let ra = Reference.solve ~max_conflicts:50 r in
    check_same_answer (Printf.sprintf "resume round %d" !rounds) sa ra;
    check_stats_equal (Printf.sprintf "resume round %d" !rounds) (Solver.stats s)
      (Reference.stats r);
    (match sa with Solver.Unknown _ -> () | _ -> continue := false)
  done;
  Alcotest.(check bool) "search concluded" false !continue

let differential_incremental_stream () =
  (* interleaved add_clause / solve ~assumptions on both engines, with the
     arena compacting aggressively underneath *)
  let config = gc_heavy Config.minisat_like in
  let n = 24 in
  let s = Solver.create ~config (Sat.Cnf.make ~num_vars:n []) in
  let r = Reference.create ~config (Sat.Cnf.make ~num_vars:n []) in
  let rng = Testutil.rng 99 in
  for round = 1 to 30 do
    for _ = 1 to 12 do
      let c = Sat.Clause.lits (Testutil.random_clause rng ~n ~k:3) in
      Solver.add_clause s c;
      Reference.add_clause r c
    done;
    let assumptions =
      List.map
        (fun v -> Sat.Lit.make v (Stats.Rng.bool rng))
        (Stats.Rng.sample_without_replacement rng 2 n)
    in
    let sa = Solver.solve_with_assumptions s assumptions in
    let ra = Reference.solve_with_assumptions r assumptions in
    let tag = function
      | `Sat _ -> "sat"
      | `Unsat -> "unsat"
      | `Unsat_assumptions -> "unsat-assumptions"
      | `Unknown -> "unknown"
    in
    Alcotest.(check string)
      (Printf.sprintf "stream round %d: answer" round)
      (tag ra) (tag sa);
    (match (sa, ra) with
    | `Unsat_assumptions, `Unsat_assumptions ->
        Alcotest.(check (list int))
          (Printf.sprintf "stream round %d: core" round)
          (Reference.unsat_core r) (Solver.unsat_core s)
    | _ -> ());
    check_stats_equal (Printf.sprintf "stream round %d" round) (Solver.stats s)
      (Reference.stats r)
  done

(* ---- garbage collection ---- *)

let gc_reclaims_and_preserves_answers () =
  let f = Workload.Uniform.uf (Testutil.rng 11) 150 in
  let s = Solver.create ~config:Config.minisat_like f in
  (* run long enough for reduce_db to delete clauses, then compact *)
  ignore (Solver.solve ~max_conflicts:2000 s);
  let words_before = Solver.arena_words s in
  Solver.garbage_collect s;
  Alcotest.(check int) "no waste after explicit gc" 0 (Solver.arena_wasted s);
  Alcotest.(check bool) "arena did not grow" true (Solver.arena_words s <= words_before);
  (* the relocated solver must still reach the right answer *)
  (match Solver.solve s with
  | Solver.Sat m -> Alcotest.(check bool) "model valid" true (Testutil.check_model f m)
  | Solver.Unsat -> Alcotest.fail "planted instance cannot be unsat"
  | Solver.Unknown _ -> Alcotest.fail "no budget left to exhaust");
  (* and agree exactly with a never-collected run *)
  let s2 = Solver.create ~config:{ Config.minisat_like with Config.garbage_frac = 1e9 } f in
  ignore (Solver.solve ~max_conflicts:2000 s2);
  ignore (Solver.solve s2);
  check_stats_equal "gc vs never-gc" (Solver.stats s) (Solver.stats s2)

let gc_under_incremental_stream () =
  let config = gc_heavy Config.minisat_like in
  let s = Solver.create ~config (Sat.Cnf.make ~num_vars:20 []) in
  let rng = Testutil.rng 5 in
  for _ = 1 to 40 do
    for _ = 1 to 10 do
      Solver.add_clause s (Sat.Clause.lits (Testutil.random_clause rng ~n:20 ~k:3));
      (* interleave explicit compactions at arbitrary points *)
      if Stats.Rng.float rng 1.0 < 0.1 then Solver.garbage_collect s
    done;
    let a = Sat.Lit.make (Stats.Rng.int rng 20) (Stats.Rng.bool rng) in
    ignore (Solver.solve_with_assumptions s [ a ]);
    Solver.garbage_collect s;
    Alcotest.(check int) "compacted" 0 (Solver.arena_wasted s)
  done;
  (* final answers must match a fresh solver over the same clause set *)
  ignore (Solver.solve s)

(* ---- learnt interchange across compaction ---- *)

let export_import_across_gc () =
  let f = Workload.Uniform.uf (Testutil.rng 21) 150 in
  let s = Solver.create ~config:(gc_heavy Config.minisat_like) f in
  ignore (Solver.solve ~max_conflicts:1500 s);
  Solver.garbage_collect s;
  let exported = Solver.export_learnts s in
  Alcotest.(check bool) "exported something" true (exported <> []);
  let s2 = Solver.create ~config:Config.minisat_like f in
  let imported = Solver.import_clauses s2 exported in
  Alcotest.(check bool) "imported something" true (imported > 0);
  Solver.garbage_collect s2;
  match Solver.solve s2 with
  | Solver.Sat m -> Alcotest.(check bool) "model valid" true (Testutil.check_model f m)
  | _ -> Alcotest.fail "planted instance must stay satisfiable after import"

(* ---- DRAT proofs across compaction ---- *)

let drat_certifies_after_gc () =
  (* unsat circuit-fault instance, proof-logging on, aggressive GC: the
     recorded derivation must still RUP-check *)
  let f = Workload.Circuit_fault.generate (Testutil.rng 77) ~inputs:6 ~gates:20 in
  let config = Config.with_proof_logging (gc_heavy Config.minisat_like) in
  let s = Solver.create ~config f in
  (* interleave explicit compactions with the search *)
  let rec drive k =
    match Solver.solve ~max_conflicts:100 s with
    | Solver.Unknown _ when k > 0 ->
        Solver.garbage_collect s;
        drive (k - 1)
    | r -> r
  in
  (match drive 1000 with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "cfa instance should be unsat");
  match Solver.proof s with
  | None -> Alcotest.fail "proof missing"
  | Some proof -> (
      match Sat.Drat.check f proof with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("proof fails after GC: " ^ e))

(* ---- Vec unsafe accessors ---- *)

let vec_unsafe_ops () =
  let v = Vec.create ~capacity:2 ~dummy:(-1) () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  for i = 0 to 99 do
    Alcotest.(check int) "unsafe_get" i (Vec.unsafe_get v i)
  done;
  Alcotest.(check int) "get agrees with unsafe_get" (Vec.get v 99) (Vec.unsafe_get v 99);
  (* growth then shrink keeps the accessors coherent *)
  Vec.shrink v 10;
  Alcotest.(check int) "after shrink" 9 (Vec.unsafe_get v 9);
  for i = 10 to 20 do
    Vec.push v (2 * i)
  done;
  Alcotest.(check int) "regrown" 40 (Vec.unsafe_get v 20);
  Vec.shrink v 0;
  Vec.push v 7;
  Alcotest.(check int) "after emptying" 7 (Vec.unsafe_get v 0)

let suite =
  [
    ( "cdcl.arena",
      [
        Alcotest.test_case "arena basics" `Quick arena_basics;
        Alcotest.test_case "reloc forwarding" `Quick arena_reloc_forwarding;
        Alcotest.test_case "vec unsafe ops" `Quick vec_unsafe_ops;
      ] );
    ( "cdcl.arena_differential",
      [
        Alcotest.test_case "fixed instances" `Slow differential_fixed;
        QCheck_alcotest.to_alcotest differential_qcheck;
        Alcotest.test_case "budget resume lockstep" `Slow differential_budget_resume;
        Alcotest.test_case "incremental stream" `Slow differential_incremental_stream;
      ] );
    ( "cdcl.arena_gc",
      [
        Alcotest.test_case "reclaims + preserves answers" `Slow gc_reclaims_and_preserves_answers;
        Alcotest.test_case "incremental stream" `Slow gc_under_incremental_stream;
        Alcotest.test_case "export/import across gc" `Slow export_import_across_gc;
        Alcotest.test_case "drat certifies after gc" `Slow drat_certifies_after_gc;
      ] );
  ]
