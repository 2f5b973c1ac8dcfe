(* The incremental local-search kernel (Cdcl.Walksat) checked differentially
   against the rescanning loops it replaced (Oracle.Local_search): for one
   seed both must return the same (cost, model) and the same (model,
   stats), poll their stop switch the same number of times, and so leave
   the caller's RNG in the same state. *)

(* a clause of 1..4 literals drawn with replacement, so duplicates
   collapse and a variable may appear in both signs (a tautology); with
   [n = 0], or with probability [empty_pct]%, the empty clause *)
let raw_clause r ~n ~empty_pct =
  if n = 0 || Stats.Rng.int r 100 < empty_pct then Sat.Clause.make []
  else
    Sat.Clause.make
      (List.init (1 + Stats.Rng.int r 4) (fun _ ->
           Sat.Lit.make (Stats.Rng.int r n) (Stats.Rng.bool r)))

let raw_clauses ?(empty_pct = 5) r ~n ~m = List.init m (fun _ -> raw_clause r ~n ~empty_pct)

(* a formula shape plus the seed every random choice derives from *)
type case = { seed : int; n : int; m : int; flips : int; stop_at : int option }

let case_gen ~max_n ~max_m ~max_flips =
  QCheck.Gen.(
    int_bound 1_000_000 >>= fun seed ->
    int_range 0 max_n >>= fun n ->
    int_range 0 max_m >>= fun m ->
    int_range 0 max_flips >>= fun flips ->
    opt (int_range 1 12) >>= fun stop_at -> return { seed; n; m; flips; stop_at })

let case_arb ?(max_n = 12) ?(max_m = 40) ?(max_flips = 400) () =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "seed=%d n=%d m=%d flips=%d stop_at=%s" c.seed c.n c.m c.flips
        (match c.stop_at with Some k -> string_of_int k | None -> "-"))
    (case_gen ~max_n ~max_m ~max_flips)

(* a stop switch that fires from its [k]-th poll on, counting its polls *)
let switch stop_at =
  let polls = ref 0 in
  let should_stop () =
    incr polls;
    match stop_at with Some k -> !polls >= k | None -> false
  in
  (polls, should_stop)

(* run the kernel and the oracle from equal seeds; equal results, equal
   poll counts, and equal RNG states afterwards (the next draw agrees) *)
let agree ~stop_at kernel oracle seed =
  let r1 = Testutil.rng seed and r2 = Testutil.rng seed in
  let p1, s1 = switch stop_at and p2, s2 = switch stop_at in
  let a = kernel s1 r1 and b = oracle s2 r2 in
  a = b && !p1 = !p2 && Stats.Rng.int r1 1_000_000 = Stats.Rng.int r2 1_000_000

(* random weights, now and then near [max_int] so the running cost wraps
   exactly as the oracle's full re-sum does *)
let weight r =
  match Stats.Rng.int r 10 with
  | 0 -> (max_int / 3) + Stats.Rng.int r 1_000
  | 1 -> 0
  | _ -> 1 + Stats.Rng.int r 20

let minimise_matches_oracle =
  QCheck.Test.make ~name:"minimise == rescanning oracle" ~count:400 (case_arb ())
    (fun c ->
      let r = Testutil.rng c.seed in
      let all = Array.of_list (List.map (fun cl -> (weight r, cl)) (raw_clauses r ~n:c.n ~m:c.m)) in
      agree ~stop_at:c.stop_at
        (fun should_stop rng ->
          Cdcl.Walksat.minimise ~max_flips:c.flips ~should_stop rng ~num_vars:c.n all)
        (fun should_stop rng ->
          Oracle.Local_search.minimise ~max_flips:c.flips ~should_stop rng ~num_vars:c.n all)
        (c.seed + 1))

(* the Optimize entry point: hard clauses at [top], softs at their weight;
   every other case is hard-only *)
let incumbent_matches_oracle =
  QCheck.Test.make ~name:"Optimize.incumbent == rescanning oracle" ~count:300
    (case_arb ~max_flips:2_000 ())
    (fun c ->
      let r = Testutil.rng c.seed in
      let hard = raw_clauses r ~n:c.n ~m:(Stats.Rng.int r (c.m + 1)) in
      let soft =
        if c.seed land 1 = 0 then []
        else List.map (fun cl -> (1 + Stats.Rng.int r 9, cl)) (raw_clauses r ~n:c.n ~m:c.m)
      in
      let w = Sat.Wcnf.make ~num_vars:c.n ~hard ~soft in
      agree ~stop_at:c.stop_at
        (fun should_stop rng -> Hyqsat.Optimize.incumbent ~max_flips:c.flips ~should_stop rng w)
        (fun should_stop rng ->
          Oracle.Local_search.incumbent ~max_flips:c.flips ~should_stop rng w)
        (c.seed + 2))

let walksat_matches_oracle ~name ~count arb =
  QCheck.Test.make ~name ~count arb (fun c ->
      let r = Testutil.rng c.seed in
      (* one formula in ten carries an empty clause *)
      let clauses = raw_clauses ~empty_pct:0 r ~n:c.n ~m:c.m in
      let clauses = if c.seed mod 10 = 0 then Sat.Clause.make [] :: clauses else clauses in
      let f = Sat.Cnf.make ~num_vars:c.n clauses in
      let noise = [| 0.0; 0.3; 0.5; 1.0 |].(Stats.Rng.int r 4) in
      let restarts = Stats.Rng.int r 4 in
      agree ~stop_at:c.stop_at
        (fun should_stop rng ->
          Cdcl.Walksat.solve ~max_flips:c.flips ~restarts ~noise ~should_stop rng f)
        (fun should_stop rng ->
          Oracle.Local_search.walksat ~max_flips:c.flips ~restarts ~noise ~should_stop rng f)
        (c.seed + 3))

(* no empty clause and no stop: long walks that actually solve *)
let walksat_solves_like_oracle =
  QCheck.Test.make ~name:"walksat == oracle on planted 3-SAT" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range 10 40))
    (fun (seed, n) ->
      let f = Workload.Uniform.generate (Testutil.rng seed) ~num_vars:n ~num_clauses:(4 * n) in
      agree ~stop_at:None
        (fun should_stop rng -> Cdcl.Walksat.solve ~max_flips:3_000 ~should_stop rng f)
        (fun should_stop rng -> Oracle.Local_search.walksat ~max_flips:3_000 ~should_stop rng f)
        (seed + 4))

let walksat_empty_clause () =
  let f = Sat.Cnf.make ~num_vars:2 [ Sat.Clause.make [ Sat.Lit.pos 0 ]; Sat.Clause.make [] ] in
  match Cdcl.Walksat.solve (Testutil.rng 1) f with
  | None, { Cdcl.Walksat.flips = 0; restarts_used = 0 } -> ()
  | _ -> Alcotest.fail "an empty clause must end the search before any flip"

let suite =
  [
    Testutil.qsuite "local_search"
      [
        minimise_matches_oracle;
        incumbent_matches_oracle;
        walksat_matches_oracle ~name:"walksat == rescanning oracle" ~count:400 (case_arb ());
        walksat_solves_like_oracle;
      ];
    ( "local_search.edges",
      [ Alcotest.test_case "walksat stops on an empty clause" `Quick walksat_empty_clause ] );
  ]
