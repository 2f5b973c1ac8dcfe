(* Observability layer: null-context cost, span mechanics, histogram
   bucketing, exporter golden outputs, and an end-to-end batch trace. *)

let memory_sink spans metrics =
  {
    Obs.Ctx.on_span = (fun r -> spans := r :: !spans);
    on_metrics = (fun ms -> metrics := ms);
    on_close = ignore;
  }

(* fake clock: deterministic traces for the golden tests *)
let fake_ctx start =
  let tick = ref start in
  let ctx = Obs.Ctx.create ~clock:(fun () -> !tick) () in
  (ctx, tick)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let null_context_is_free () =
  Alcotest.(check bool) "start on null is the none sentinel" true
    (Obs.Span.start Obs.Ctx.null "x" == Obs.Span.none);
  Alcotest.(check int) "none has id 0" 0 (Obs.Span.id Obs.Span.none);
  Alcotest.(check (list string)) "null snapshot empty" []
    (List.map fst (Obs.Ctx.snapshot Obs.Ctx.null));
  Obs.Ctx.close Obs.Ctx.null (* close is a no-op, not a crash *);
  (* the hot path allocates nothing when observability is off: compare the
     loop's minor-heap usage against an empty measurement (both include the
     same fixed Gc.minor_words boxing overhead) *)
  let base = minor_words (fun () -> ()) in
  let hot () =
    for _ = 1 to 10_000 do
      let s = Obs.Span.start Obs.Ctx.null "hot" in
      Obs.Span.stop s;
      Obs.Metrics.incr Obs.Ctx.null "hot_total";
      Obs.Metrics.observe Obs.Ctx.null "hot_seconds" 1.0
    done
  in
  hot ();
  (* warm-up above; measure the second run *)
  let used = minor_words hot in
  Alcotest.(check bool)
    (Printf.sprintf "no allocation on null path (used %.0f, base %.0f)" used base)
    true
    (used <= base)

let span_nesting_and_order () =
  let ctx, tick = fake_ctx 100.0 in
  let spans = ref [] and metrics = ref [] in
  Obs.Ctx.attach ctx (memory_sink spans metrics);
  tick := 100.25;
  let parent = Obs.Span.start ctx ~attrs:[ ("file", "a.cnf") ] "solve" in
  tick := 100.5;
  let child = Obs.Span.start ctx ~parent "stage" in
  tick := 100.75;
  Obs.Span.stop child;
  Obs.Span.add_attr parent "result" "sat";
  tick := 101.0;
  Obs.Span.stop parent;
  Obs.Span.stop parent (* idempotent: emitted once *);
  (match List.rev !spans with
  | [ c; p ] ->
      Alcotest.(check int) "child id" 2 c.Obs.Ctx.id;
      Alcotest.(check int) "child linked to parent" 1 c.Obs.Ctx.parent;
      Alcotest.(check int) "parent is a root span" 0 p.Obs.Ctx.parent;
      Alcotest.(check (float 1e-9)) "child start" 0.5 c.Obs.Ctx.start_s;
      Alcotest.(check (float 1e-9)) "child duration" 0.25 c.Obs.Ctx.dur_s;
      Alcotest.(check (float 1e-9)) "parent duration" 0.75 p.Obs.Ctx.dur_s;
      Alcotest.(check (list (pair string string)))
        "attrs in insertion order"
        [ ("file", "a.cnf"); ("result", "sat") ]
        p.Obs.Ctx.attrs
  | l -> Alcotest.failf "expected 2 spans (child first), got %d" (List.length l));
  (* pre-measured spans: record clamps the start at the epoch *)
  Obs.Span.record ctx ~dur_s:5.0 "modelled";
  (match !spans with
  | r :: _ ->
      Alcotest.(check (float 1e-9)) "record start clamped" 0.0 r.Obs.Ctx.start_s;
      Alcotest.(check (float 1e-9)) "record duration kept" 5.0 r.Obs.Ctx.dur_s
  | [] -> Alcotest.fail "record emitted nothing");
  Obs.Ctx.close ctx

let clock_is_clamped_monotonic () =
  let ctx, tick = fake_ctx 100.0 in
  tick := 99.0 (* wall clock jumps backwards *);
  Alcotest.(check (float 1e-9)) "never negative" 0.0 (Obs.Ctx.now ctx);
  tick := 101.5;
  Alcotest.(check (float 1e-9)) "resumes forward" 1.5 (Obs.Ctx.now ctx)

let histogram_bucket_edges () =
  let ctx = Obs.Ctx.create () in
  let bounds = [| 1.0; 2.0; 5.0 |] in
  List.iter
    (fun v -> Obs.Metrics.observe ctx ~bounds "h" v)
    [ 0.5; 1.0; 1.5; 2.0; 5.0; 5.1 ];
  (match Obs.Ctx.snapshot ctx with
  | [ ("h", Obs.Ctx.Histogram h) ] ->
      (* upper edges are inclusive: 1.0 lands in the first bucket *)
      Alcotest.(check (array int)) "bucket counts" [| 2; 2; 1; 1 |] h.Obs.Ctx.counts;
      Alcotest.(check int) "observations" 6 h.Obs.Ctx.observations;
      Alcotest.(check (float 1e-9)) "sum" 15.1 h.Obs.Ctx.sum
  | _ -> Alcotest.fail "expected exactly one histogram");
  (* default buckets: fixed 1-2-5 log series *)
  let d = Obs.Ctx.default_buckets in
  Alcotest.(check int) "45 default bounds" 45 (Array.length d);
  Alcotest.(check (float 1e-12)) "first default bound" 1e-6 d.(0);
  Alcotest.(check bool) "defaults ascend" true
    (Array.for_all (fun b -> b > 0.0) d
    && Array.for_all2 (fun a b -> a < b) (Array.sub d 0 44) (Array.sub d 1 44));
  (* one name, two kinds: refused rather than silently corrupted *)
  match Obs.Metrics.incr ctx "h" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "kind mismatch must raise"

let jsonl_golden () =
  let ctx, tick = fake_ctx 200.0 in
  let buf = Buffer.create 256 in
  Obs.Ctx.attach ctx (Obs.Export.jsonl ~write:(Buffer.add_string buf));
  tick := 200.25;
  let root = Obs.Span.start ctx ~attrs:[ ("file", "a \"b\".cnf") ] "solve" in
  tick := 200.5;
  let stage = Obs.Span.start ctx ~parent:root "cdcl" in
  tick := 200.75;
  Obs.Span.stop stage;
  tick := 201.0;
  Obs.Span.stop root;
  Obs.Metrics.incr ctx "qa_calls_total";
  Obs.Metrics.incr ctx "qa_calls_total";
  Obs.Metrics.gauge ctx "queue_depth" 1.5;
  Obs.Metrics.observe ctx ~bounds:[| 1.0; 2.0; 5.0 |] "solve_seconds" 1.5;
  Obs.Ctx.close ctx;
  let expected =
    String.concat ""
      [
        "{\"type\":\"span\",\"id\":2,\"parent\":1,\"name\":\"cdcl\",\
         \"start_s\":0.5,\"dur_s\":0.25}\n";
        "{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"solve\",\
         \"start_s\":0.25,\"dur_s\":0.75,\
         \"attrs\":{\"file\":\"a \\\"b\\\".cnf\"}}\n";
        "{\"type\":\"counter\",\"name\":\"qa_calls_total\",\"value\":2}\n";
        "{\"type\":\"gauge\",\"name\":\"queue_depth\",\"value\":1.5}\n";
        "{\"type\":\"histogram\",\"name\":\"solve_seconds\",\"count\":1,\
         \"sum\":1.5,\"buckets\":[{\"le\":2,\"n\":1}]}\n";
      ]
  in
  Alcotest.(check string) "jsonl trace" expected (Buffer.contents buf)

let prometheus_golden () =
  let ctx = Obs.Ctx.create () in
  Obs.Metrics.count ctx "qa_calls_total" 2;
  Obs.Metrics.gauge ctx "queue_depth" 1.5;
  Obs.Metrics.observe ctx ~bounds:[| 1.0; 2.0; 5.0 |] "solve_seconds" 1.0;
  Obs.Metrics.observe ctx ~bounds:[| 1.0; 2.0; 5.0 |] "solve_seconds" 6.0;
  Obs.Metrics.incr ctx (Obs.Metrics.labelled "strategy_uses_total" [ ("strategy", "s1") ]);
  Obs.Metrics.incr ctx (Obs.Metrics.labelled "strategy_uses_total" [ ("strategy", "s2") ]);
  Obs.Metrics.incr ctx (Obs.Metrics.labelled "strategy_uses_total" [ ("strategy", "s2") ]);
  let expected =
    String.concat "\n"
      [
        "# TYPE qa_calls_total counter";
        "qa_calls_total 2";
        "# TYPE queue_depth gauge";
        "queue_depth 1.5";
        "# TYPE solve_seconds histogram";
        "solve_seconds_bucket{le=\"1\"} 1";
        "solve_seconds_bucket{le=\"2\"} 1";
        "solve_seconds_bucket{le=\"5\"} 1";
        "solve_seconds_bucket{le=\"+Inf\"} 2";
        "solve_seconds_sum 7";
        "solve_seconds_count 2";
        "# TYPE strategy_uses_total counter";
        "strategy_uses_total{strategy=\"s1\"} 1";
        "strategy_uses_total{strategy=\"s2\"} 2";
        "";
      ]
  in
  Alcotest.(check string) "prometheus text"
    expected
    (Obs.Export.prometheus_string (Obs.Ctx.snapshot ctx))

let console_tree_renders () =
  let ctx, tick = fake_ctx 0.0 in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.Ctx.attach ctx (Obs.Export.console_tree ppf);
  let root = Obs.Span.start ctx "solve" in
  tick := 1.0;
  Obs.Span.record ctx ~parent:root ~dur_s:0.25 "cdcl";
  Obs.Span.record ctx ~parent:root ~dur_s:0.75 "anneal";
  Obs.Span.stop root;
  Obs.Metrics.incr ctx "qa_calls_total";
  Obs.Ctx.close ctx;
  let out = Buffer.contents buf in
  let contains needle =
    Alcotest.(check bool) (Printf.sprintf "output contains %S" needle) true
      (let n = String.length needle and m = String.length out in
       let rec go i = i + n <= m && (String.sub out i n = needle || go (i + 1)) in
       go 0)
  in
  contains "trace summary";
  contains "└─ solve ×1";
  (* children sorted by total duration, anneal (0.75) first *)
  contains "├─ anneal ×1 — 0.750 s";
  contains "└─ cdcl ×1 — 0.250 s";
  contains "qa_calls_total = 1"

let batch_trace_end_to_end () =
  let ctx = Obs.Ctx.create () in
  let spans = ref [] and metrics = ref [] in
  Obs.Ctx.attach ctx (memory_sink spans metrics);
  let rng = Stats.Rng.create ~seed:5 in
  let jobs =
    List.init 2 (fun i ->
        Service.Job.make ~name:(Printf.sprintf "uf20-%d" i) ~id:i
          (Workload.Uniform.uf rng 20))
  in
  let members = Service.Batch.solo "minisat" in
  let _summary, results = Service.Batch.run ~workers:2 ~obs:ctx ~members jobs in
  Obs.Ctx.close ctx;
  Alcotest.(check int) "both jobs solved" 2 (List.length results);
  let count name =
    List.length (List.filter (fun r -> r.Obs.Ctx.name = name) !spans)
  in
  Alcotest.(check int) "one batch span" 1 (count "batch");
  Alcotest.(check int) "one job span per job" 2 (count "job");
  Alcotest.(check int) "one attempt span per (unretried) job" 2 (count "attempt");
  Alcotest.(check int) "one race per attempt" 2 (count "race");
  Alcotest.(check int) "one member per race (solo)" 2 (count "member");
  (* parent links: every attempt hangs off a job, every job off the batch *)
  let find_all name = List.filter (fun r -> r.Obs.Ctx.name = name) !spans in
  let ids name = List.map (fun r -> r.Obs.Ctx.id) (find_all name) in
  let batch_id = List.hd (ids "batch") in
  List.iter
    (fun j -> Alcotest.(check int) "job under batch" batch_id j.Obs.Ctx.parent)
    (find_all "job");
  let job_ids = ids "job" in
  List.iter
    (fun a ->
      Alcotest.(check bool) "attempt under some job" true
        (List.mem a.Obs.Ctx.parent job_ids))
    (find_all "attempt");
  (* the CDCL stage of each solve shows up under the member spans *)
  Alcotest.(check bool) "cdcl stage spans present" true (count "cdcl" >= 2);
  (* metrics delivered at close include the per-outcome job counter and the
     solver totals *)
  let metric_names = List.map fst !metrics in
  let has prefix =
    List.exists
      (fun n ->
        String.length n >= String.length prefix
        && String.sub n 0 (String.length prefix) = prefix)
      metric_names
  in
  Alcotest.(check bool) "jobs_total{outcome=...} present" true (has "jobs_total{");
  Alcotest.(check bool) "cdcl_conflicts_total present" true
    (List.mem "cdcl_conflicts_total" metric_names)

let hybrid_stage_spans_sum_to_end_to_end () =
  let ctx = Obs.Ctx.create () in
  let spans = ref [] and metrics = ref [] in
  Obs.Ctx.attach ctx (memory_sink spans metrics);
  let f = Workload.Uniform.uf (Stats.Rng.create ~seed:42) 50 in
  let r =
    Hyqsat.Solve.run ~obs:ctx
      (Hyqsat.Hybrid_solver.Hybrid Hyqsat.Hybrid_solver.default_config)
      f
  in
  Obs.Ctx.close ctx;
  let total names =
    List.fold_left
      (fun acc s -> if List.mem s.Obs.Ctx.name names then acc +. s.Obs.Ctx.dur_s else acc)
      0.0 !spans
  in
  let staged = total [ "frontend"; "anneal"; "backend"; "cdcl" ] in
  let e2e = Hyqsat.Hybrid_solver.end_to_end_time_s r in
  Alcotest.(check bool)
    (Printf.sprintf "stage spans (%.6f s) sum to end_to_end (%.6f s)" staged e2e)
    true
    (Float.abs (staged -. e2e) <= 0.05 *. Float.max e2e 1e-9);
  (* embed is nested inside frontend, not additional *)
  Alcotest.(check bool) "embed within frontend" true
    (total [ "embed" ] <= total [ "frontend" ] +. 1e-9);
  let counter name =
    match List.assoc_opt name !metrics with
    | Some (Obs.Ctx.Counter { count }) -> int_of_float count
    | _ -> -1
  in
  Alcotest.(check int) "qa_calls_total matches report" r.Hyqsat.Hybrid_solver.qa_calls
    (counter "qa_calls_total");
  Alcotest.(check bool) "cdcl_conflicts_total recorded" true
    (counter "cdcl_conflicts_total" >= 0);
  (* one anneal_host span per run_via call, successful or degraded, each
     under its warm-up iteration *)
  let host_spans spans =
    let iters =
      List.filter_map
        (fun s -> if s.Obs.Ctx.name = "warmup_iter" then Some s.Obs.Ctx.id else None)
        spans
    in
    let host = List.filter (fun s -> s.Obs.Ctx.name = "anneal_host") spans in
    List.iter
      (fun s ->
        Alcotest.(check bool) "anneal_host under warmup_iter" true
          (List.mem s.Obs.Ctx.parent iters))
      host;
    List.length host
  in
  Alcotest.(check int) "one anneal_host per QA call" r.Hyqsat.Hybrid_solver.qa_calls
    (host_spans !spans);
  (* a device failing half its calls: degraded calls get a span too *)
  let ctx = Obs.Ctx.create () in
  let spans = ref [] in
  Obs.Ctx.attach ctx (memory_sink spans (ref []));
  let backend =
    Anneal.Backend.with_faults
      { Anneal.Backend.fail_rate = 0.5; fault_seed = 3 }
      Anneal.Backend.best_of
  in
  let config =
    Hyqsat.Hybrid_solver.make_config ~backend
      ~supervisor:{ Anneal.Supervisor.default_policy with Anneal.Supervisor.retries = 0 }
      ()
  in
  let r = Hyqsat.Solve.run ~obs:ctx (Hyqsat.Hybrid_solver.Hybrid config) f in
  Obs.Ctx.close ctx;
  Alcotest.(check bool) "some calls degraded" true (r.Hyqsat.Hybrid_solver.qa_degraded > 0);
  Alcotest.(check int) "one anneal_host per QA call and degraded call"
    (r.Hyqsat.Hybrid_solver.qa_calls + r.Hyqsat.Hybrid_solver.qa_degraded)
    (host_spans !spans)

(* sinks are the one span path: a detached sink sees nothing more — no
   span, no metrics, no close — while its sibling sees everything *)
let detached_sink_receives_nothing () =
  let ctx, tick = fake_ctx 0.0 in
  let recording () =
    let spans = ref [] and metrics = ref [] and closed = ref 0 in
    let sink =
      {
        Obs.Ctx.on_span = (fun r -> spans := r.Obs.Ctx.name :: !spans);
        on_metrics = (fun ms -> metrics := List.map fst ms);
        on_close = (fun () -> incr closed);
      }
    in
    (sink, spans, metrics, closed)
  in
  let kept, kept_spans, kept_metrics, kept_closed = recording () in
  let gone, gone_spans, gone_metrics, gone_closed = recording () in
  Obs.Ctx.attach ctx kept;
  Obs.Ctx.attach ctx gone;
  Obs.Ctx.detach ctx gone;
  Obs.Ctx.detach ctx gone (* unknown by now: ignored *);
  let root = Obs.Span.start ctx "root" in
  tick := 1.0;
  Obs.Span.record ctx ~parent:root ~dur_s:0.5 "leaf";
  Obs.Span.stop root;
  Obs.Metrics.incr ctx "things_total";
  Obs.Ctx.close ctx;
  Alcotest.(check (list string)) "kept sink saw every span" [ "leaf"; "root" ]
    (List.rev !kept_spans);
  Alcotest.(check (list string)) "kept sink got the metrics" [ "things_total" ] !kept_metrics;
  Alcotest.(check int) "kept sink closed once" 1 !kept_closed;
  Alcotest.(check (list string)) "detached sink saw no span" [] !gone_spans;
  Alcotest.(check (list string)) "detached sink got no metrics" [] !gone_metrics;
  Alcotest.(check int) "detached sink never closed" 0 !gone_closed

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "null context is free" `Quick null_context_is_free;
        Alcotest.test_case "span nesting and order" `Quick span_nesting_and_order;
        Alcotest.test_case "clock clamped monotonic" `Quick clock_is_clamped_monotonic;
        Alcotest.test_case "histogram bucket edges" `Quick histogram_bucket_edges;
        Alcotest.test_case "jsonl golden" `Quick jsonl_golden;
        Alcotest.test_case "prometheus golden" `Quick prometheus_golden;
        Alcotest.test_case "console tree renders" `Quick console_tree_renders;
        Alcotest.test_case "batch trace end-to-end" `Quick batch_trace_end_to_end;
        Alcotest.test_case "hybrid stage spans sum to end-to-end" `Quick
          hybrid_stage_spans_sum_to_end_to_end;
        Alcotest.test_case "detached sink receives nothing" `Quick detached_sink_receives_nothing;
      ] );
  ]
