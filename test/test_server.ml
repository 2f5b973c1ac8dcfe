(* Tests for the lib/server daemon stack: framing codec (round-trip,
   partial I/O, rejection), protocol versioning, admission control
   (queue bound, quota, priority, drain-exactly-once), wire/one-shot
   answer equality, metrics determinism, and an end-to-end daemon run
   over a Unix socket. *)

module Codec = Server.Codec
module Protocol = Server.Protocol
module Jobq = Server.Jobq
module Quota = Server.Quota
module Dispatch = Server.Dispatch
module Daemon = Server.Daemon
module Client = Server.Client
module Drain = Server.Drain
module Job = Service.Job
module Batch = Service.Batch
module Telemetry = Service.Telemetry

(* ------------------------------------------------------------------ *)
(* codec *)

let decode_all dec =
  let rec go acc =
    match Codec.next dec with
    | Ok (Some p) -> go (p :: acc)
    | Ok None -> List.rev acc
    | Error e -> Alcotest.failf "decoder error: %s" (Codec.error_label e)
  in
  go []

let codec_roundtrip () =
  let payloads = [ ""; "x"; String.make 5000 'q'; "{\"k\":1}"; String.make 3 '\000' ] in
  let wire = String.concat "" (List.map Codec.frame payloads) in
  let dec = Codec.decoder () in
  Codec.feed_string dec wire;
  Alcotest.(check (list string)) "all frames back" payloads (decode_all dec);
  Alcotest.(check int) "nothing left" 0 (Codec.buffered dec)

let codec_partial_reads () =
  let payloads = [ "alpha"; ""; "gamma-" ^ String.make 300 'g' ] in
  let wire = String.concat "" (List.map Codec.frame payloads) in
  (* one byte at a time: every prefix is a legal partial read *)
  let dec = Codec.decoder () in
  let got = ref [] in
  String.iter
    (fun ch ->
      Codec.feed_string dec (String.make 1 ch);
      match Codec.next dec with
      | Ok (Some p) -> got := p :: !got
      | Ok None -> ()
      | Error e -> Alcotest.failf "decoder error: %s" (Codec.error_label e))
    wire;
  Alcotest.(check (list string)) "byte-by-byte" payloads (List.rev !got)

let codec_short_writes () =
  let payloads = [ "one"; "two-two"; String.make 100 'z' ] in
  let w = Codec.writer () in
  List.iter (fun p -> Codec.push w (Codec.frame p)) payloads;
  (* drain in 7-byte chunks, as a slow socket would *)
  let out = Buffer.create 64 in
  while Codec.pending w > 0 do
    let chunk = Codec.to_write w ~max:7 () in
    Buffer.add_string out chunk;
    Codec.advance w (String.length chunk)
  done;
  let dec = Codec.decoder () in
  Codec.feed_string dec (Buffer.contents out);
  Alcotest.(check (list string)) "writer output decodes" payloads (decode_all dec)

let codec_oversized () =
  let dec = Codec.decoder ~max_frame:64 () in
  (* a legal header declaring a payload beyond the limit *)
  let header = Bytes.of_string (Codec.frame "") in
  Bytes.set header 6 '\x10' (* length = 0x1000 = 4096 > 64 *);
  Codec.feed dec header;
  (match Codec.next dec with
  | Error (Codec.Oversized { size; limit }) ->
      Alcotest.(check int) "declared size" 4096 size;
      Alcotest.(check int) "limit" 64 limit
  | _ -> Alcotest.fail "oversized header not rejected");
  (* sticky: feeding valid data afterwards cannot resurrect the stream *)
  Codec.feed_string dec (Codec.frame "ok");
  (match Codec.next dec with
  | Error (Codec.Oversized _) -> ()
  | _ -> Alcotest.fail "oversized error not sticky");
  Alcotest.check_raises "frame refuses oversized payloads"
    (Invalid_argument
       (Printf.sprintf "Codec.frame: payload of %d bytes exceeds the frame limit"
          (Codec.default_max_frame + 1)))
    (fun () -> ignore (Codec.frame (String.make (Codec.default_max_frame + 1) 'x')))

let codec_junk () =
  let dec = Codec.decoder () in
  Codec.feed_string dec "GET / HTTP/1.0\r\n";
  (match Codec.next dec with
  | Error (Codec.Bad_magic seen) -> Alcotest.(check string) "bytes seen" "GET " seen
  | _ -> Alcotest.fail "junk not rejected");
  (match Codec.next dec with
  | Error (Codec.Bad_magic _) -> ()
  | _ -> Alcotest.fail "bad-magic error not sticky")

let codec_roundtrip_prop =
  QCheck.Test.make ~count:100 ~name:"codec round-trips random payloads in random chunks"
    QCheck.(pair (list (string_of_size Gen.(int_bound 200))) (int_bound 1_000_000))
    (fun (payloads, seed) ->
      let wire = String.concat "" (List.map Codec.frame payloads) in
      let r = Testutil.rng seed in
      let dec = Codec.decoder () in
      let got = ref [] in
      let pos = ref 0 in
      while !pos < String.length wire do
        let n = min (1 + Stats.Rng.int r 40) (String.length wire - !pos) in
        Codec.feed_string dec (String.sub wire !pos n);
        pos := !pos + n;
        let rec drain () =
          match Codec.next dec with
          | Ok (Some p) ->
              got := p :: !got;
              drain ()
          | Ok None -> ()
          | Error _ -> QCheck.Test.fail_report "decoder error on valid stream"
        in
        drain ()
      done;
      List.rev !got = payloads)

(* ------------------------------------------------------------------ *)
(* protocol *)

let sample_record =
  {
    Telemetry.job_id = 3;
    job_name = "wire.cnf";
    outcome = "sat";
    verified = "model";
    winner = "hybrid";
    attempts = 2;
    queue_wait_s = 0.25;
    solve_time_s = 1.5;
    iterations = 42;
    qa_calls = 7;
    qa_failures = 1;
    degraded = 0;
    strategy_uses = [| 1; 2; 3; 4 |];
    warm_start = true;
    reused_clauses = 17;
    cost = -1;
    lower_bound = -1;
  }

let client_roundtrip msg =
  match Protocol.decode_client (Protocol.encode_client msg) with
  | Ok m -> Alcotest.(check bool) "client msg round-trips" true (m = msg)
  | Error e -> Alcotest.failf "decode_client: %s" e

let server_roundtrip msg =
  match Protocol.decode_server (Protocol.encode_server msg) with
  | Ok m -> Alcotest.(check bool) "server msg round-trips" true (m = msg)
  | Error e -> Alcotest.failf "decode_server: %s" e

let protocol_roundtrips () =
  List.iter client_roundtrip
    [
      Protocol.Hello { client = "t"; proto = 1 };
      Protocol.Submit
        (Protocol.make_job_spec ~name:"a.cnf" ~certify:true ~timeout_s:2.5 ~max_iterations:99
           ~retries:1 ~seed:7 ~priority:3 ~id:11 "p cnf 1 1\n1 0\n");
      Protocol.Submit (Protocol.make_job_spec ~id:0 "p cnf 1 1\n1 0\n");
      Protocol.Subscribe { events = true };
      Protocol.Ping 42;
      Protocol.Bye;
    ];
  List.iter server_roundtrip
    [
      Protocol.Welcome { server = Protocol.server_name; proto = 1; schema = 3 };
      Protocol.Accepted { id = 4; position = 2; queued = 5 };
      Protocol.Rejected
        { id = 4; code = "queue_full"; reason = "full"; retry_after_s = Some 1.5 };
      Protocol.Rejected { id = 4; code = "quota"; reason = "busy"; retry_after_s = None };
      Protocol.Result { id = 3; record = sample_record; model = Some [| true; false; true |] };
      Protocol.Result { id = 9; record = { sample_record with outcome = "unsat" }; model = None };
      Protocol.Event
        { job = Some 3; name = "race"; dur_s = 0.5; attrs = [ ("winner", "hybrid") ] };
      Protocol.Event { job = None; name = "job"; dur_s = 0.; attrs = [] };
      Protocol.Pong 42;
      Protocol.Drained { accepted = 9; completed = 7; cancelled = 2 };
      Protocol.Error_msg { code = "bad_msg"; reason = "nope" };
    ]

let protocol_versioning () =
  (* absent schema_version = v1; old versions accepted; newer rejected —
     the Telemetry rules applied to the wire vocabulary *)
  let accepted s =
    match Protocol.decode_client s with
    | Ok (Protocol.Ping 1) -> ()
    | Ok _ -> Alcotest.fail "decoded to the wrong message"
    | Error e -> Alcotest.failf "rejected: %s" e
  in
  accepted "{\"kind\":\"ping\",\"n\":1}";
  accepted "{\"schema_version\":1,\"kind\":\"ping\",\"n\":1}";
  accepted "{\"schema_version\":2,\"kind\":\"ping\",\"n\":1}";
  accepted
    (Printf.sprintf "{\"schema_version\":%d,\"kind\":\"ping\",\"n\":1}" Telemetry.schema_version);
  (match
     Protocol.decode_client
       (Printf.sprintf "{\"schema_version\":%d,\"kind\":\"ping\",\"n\":1}"
          (Telemetry.schema_version + 1))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "newer schema_version must be rejected");
  (match Protocol.decode_client "{\"kind\":\"warp\",\"n\":1}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind must be rejected");
  (match Protocol.decode_server "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk must be rejected");
  (* a submit without priority (the v1 shape) still decodes, defaulting 0 *)
  match
    Protocol.decode_client
      "{\"kind\":\"submit\",\"id\":1,\"name\":\"a\",\"dimacs\":\"p cnf 1 1\\n1 0\\n\",\"certify\":false,\"max_iterations\":10,\"retries\":0}"
  with
  | Ok (Protocol.Submit s) -> Alcotest.(check int) "priority defaults" 0 s.Protocol.priority
  | Ok _ -> Alcotest.fail "wrong message"
  | Error e -> Alcotest.failf "v1 submit rejected: %s" e

(* frames are decoded on the daemon's event-loop thread: nesting past the
   codec's cap must come back as an error naming the cap, not as stack and
   heap growth *)
let protocol_nesting_cap () =
  (* the message object is the first level, the padding the rest *)
  let ping depth =
    let pad = depth - 1 in
    Printf.sprintf {|{"kind":"ping","n":1,"pad":%s%s}|} (String.make pad '[')
      (String.make pad ']')
  in
  (match Protocol.decode_client (ping Json.max_depth) with
  | Ok (Protocol.Ping 1) -> ()
  | Ok _ -> Alcotest.fail "decoded to the wrong message"
  | Error e -> Alcotest.failf "%d levels rejected: %s" Json.max_depth e);
  match Protocol.decode_client (ping (Json.max_depth + 1)) with
  | Error e ->
      Alcotest.(check string) "depth error" (Json.error_message (Json.Too_deep Json.max_depth)) e
  | Ok _ -> Alcotest.fail "nesting past the cap must be rejected"

(* ------------------------------------------------------------------ *)
(* admission primitives *)

let jobq_order () =
  let q = Jobq.create ~capacity:4 in
  (match Jobq.push q ~priority:0 "a" with
  | `Ok 1 -> ()
  | _ -> Alcotest.fail "first push is position 1");
  ignore (Jobq.push q ~priority:5 "b");
  ignore (Jobq.push q ~priority:5 "c");
  (match Jobq.push q ~priority:1 "d" with
  | `Ok 4 -> Alcotest.fail "priority 1 cannot be last"
  | `Ok 3 -> ()
  | _ -> Alcotest.fail "push failed");
  (match Jobq.push q ~priority:9 "e" with
  | `Full -> ()
  | _ -> Alcotest.fail "capacity not enforced");
  let order = List.init 4 (fun _ -> Option.get (Jobq.pop q)) in
  Alcotest.(check (list string)) "priority then FIFO" [ "b"; "c"; "d"; "a" ] order;
  Alcotest.(check bool) "drained" true (Jobq.is_empty q)

let jobq_clear () =
  let q = Jobq.create ~capacity:8 in
  ignore (Jobq.push q ~priority:0 1);
  ignore (Jobq.push q ~priority:2 2);
  ignore (Jobq.push q ~priority:1 3);
  Alcotest.(check (list int)) "clear in pop order" [ 2; 3; 1 ] (Jobq.clear q);
  Alcotest.(check int) "empty after clear" 0 (Jobq.length q)

let quota_accounting () =
  let q = Quota.create ~limit:2 in
  Alcotest.(check bool) "first" true (Quota.admit q "alice");
  Alcotest.(check bool) "second" true (Quota.admit q "alice");
  Alcotest.(check bool) "third rejected" false (Quota.admit q "alice");
  Alcotest.(check bool) "other client fine" true (Quota.admit q "bob");
  Quota.release q "alice";
  Alcotest.(check bool) "slot returned" true (Quota.admit q "alice");
  Alcotest.(check int) "load" 2 (Quota.load q "alice");
  Alcotest.check_raises "release below zero raises"
    (Invalid_argument "Quota.release: client \"carol\" holds no slot") (fun () ->
      Quota.release q "carol")

(* ------------------------------------------------------------------ *)
(* dispatcher *)

let sat_dimacs = "p cnf 3 2\n1 2 3 0\n-1 2 0\n"
let unsat_dimacs = "p cnf 1 2\n1 0\n-1 0\n"

let wire_spec ?(priority = 0) ?(certify = false) ~id dimacs =
  Protocol.make_job_spec ~name:(Printf.sprintf "wire-%d" id) ~certify ~priority ~seed:(id * 17)
    ~id dimacs

let retire_all ?(timeout_s = 30.) d =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go acc =
    if Dispatch.idle d then List.rev acc
    else if Unix.gettimeofday () > deadline then Alcotest.fail "dispatcher did not go idle"
    else begin
      let batch = Dispatch.take_completions d in
      if batch = [] then Unix.sleepf 0.002;
      go (List.rev_append batch acc)
    end
  in
  go []

let dispatch_config =
  { Dispatch.default_config with Dispatch.workers = 1; queue_capacity = 2; per_client = 2 }

let dispatch_backpressure () =
  let d = Dispatch.create dispatch_config in
  (* worker slot taken by job 0; 1 and 2 fill the bounded queue; 3 must
     bounce with a retry hint (completions are deliberately not taken, so
     the slot cannot free up underneath the test) *)
  (match Dispatch.submit d ~client:"a" ~conn:1 (wire_spec ~id:0 sat_dimacs) with
  | Dispatch.Accepted { position = 1; _ } -> ()
  | _ -> Alcotest.fail "job 0 should be accepted at position 1");
  (match Dispatch.submit d ~client:"b" ~conn:1 (wire_spec ~id:1 sat_dimacs) with
  | Dispatch.Accepted _ -> ()
  | _ -> Alcotest.fail "job 1 should queue");
  (match Dispatch.submit d ~client:"c" ~conn:1 (wire_spec ~id:2 sat_dimacs) with
  | Dispatch.Accepted _ -> ()
  | _ -> Alcotest.fail "job 2 should queue");
  (match Dispatch.submit d ~client:"d" ~conn:1 (wire_spec ~id:3 sat_dimacs) with
  | Dispatch.Rejected { code = "queue_full"; retry_after_s = Some s; _ } ->
      Alcotest.(check bool) "positive retry hint" true (s > 0.)
  | _ -> Alcotest.fail "job 3 should be rejected queue_full with retry-after");
  let retired = retire_all d in
  Alcotest.(check int) "accepted jobs all retire" 3 (List.length retired);
  Dispatch.shutdown d

let dispatch_quota () =
  let d = Dispatch.create dispatch_config in
  ignore (Dispatch.submit d ~client:"greedy" ~conn:1 (wire_spec ~id:0 sat_dimacs));
  ignore (Dispatch.submit d ~client:"greedy" ~conn:1 (wire_spec ~id:1 sat_dimacs));
  (match Dispatch.submit d ~client:"greedy" ~conn:1 (wire_spec ~id:2 sat_dimacs) with
  | Dispatch.Rejected { code = "quota"; _ } -> ()
  | _ -> Alcotest.fail "third in-flight job should hit the per-client quota");
  (match Dispatch.submit d ~client:"patient" ~conn:1 (wire_spec ~id:3 sat_dimacs) with
  | Dispatch.Accepted _ -> ()
  | _ -> Alcotest.fail "another client is not affected by the quota");
  ignore (retire_all d);
  (* slots were released on retirement *)
  (match Dispatch.submit d ~client:"greedy" ~conn:1 (wire_spec ~id:4 sat_dimacs) with
  | Dispatch.Accepted _ -> ()
  | _ -> Alcotest.fail "quota slot should be released after retirement");
  ignore (retire_all d);
  Dispatch.shutdown d

let dispatch_parse_reject () =
  let d = Dispatch.create dispatch_config in
  (match Dispatch.submit d ~client:"a" ~conn:1 (wire_spec ~id:0 "this is not dimacs") with
  | Dispatch.Rejected { code = "parse"; _ } -> ()
  | _ -> Alcotest.fail "garbage input should be rejected with code parse");
  Dispatch.shutdown d

(* a 20-byte header declaring 4e9 variables would size the solver by the
   declared count: admission must refuse it before it can be queued *)
let dispatch_hostile_header_reject () =
  let d = Dispatch.create dispatch_config in
  (match Dispatch.submit d ~client:"a" ~conn:1 (wire_spec ~id:0 "p cnf 4000000000 1\n1 0\n") with
  | Dispatch.Rejected { code = "parse"; _ } -> ()
  | _ -> Alcotest.fail "a hostile header should be rejected with code parse");
  Alcotest.(check bool) "nothing queued or running" true (Dispatch.idle d);
  Alcotest.(check int) "nothing accepted" 0 (Dispatch.counters d).Drain.accepted;
  Dispatch.shutdown d

(* the front door checks each numeric field once and refuses a bad value
   (no clamping), naming the field; nothing reaches the queue *)
let dispatch_field_rejects () =
  let d = Dispatch.create dispatch_config in
  let base = wire_spec ~id:0 sat_dimacs in
  List.iter
    (fun (field, (js : Protocol.job_spec)) ->
      match Dispatch.submit d ~client:"a" ~conn:1 js with
      | Dispatch.Rejected { code = "parse"; reason; _ } ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names %s" reason field)
            true
            (String.starts_with ~prefix:field reason)
      | _ -> Alcotest.failf "a bad %s should be rejected with code parse" field)
    [
      ("gap_limit", { base with gap_limit = -1 });
      ("retries", { base with retries = -1 });
      ("max_iterations", { base with max_iterations = 0 });
      ("timeout_s", { base with timeout_s = Some 0. });
      ("timeout_s", { base with timeout_s = Some (-1.) });
      ("timeout_s", { base with timeout_s = Some Float.nan });
      ("format", { base with format = Some "opb" });
    ];
  Alcotest.(check bool) "nothing queued or running" true (Dispatch.idle d);
  Alcotest.(check int) "nothing accepted" 0 (Dispatch.counters d).Drain.accepted;
  Dispatch.shutdown d

let dispatch_priority_order () =
  let d = Dispatch.create { dispatch_config with Dispatch.queue_capacity = 8; per_client = 8 } in
  ignore (Dispatch.submit d ~client:"a" ~conn:1 (wire_spec ~id:0 sat_dimacs));
  (* all queued behind job 0: completion order must follow priority *)
  ignore (Dispatch.submit d ~client:"a" ~conn:1 (wire_spec ~priority:0 ~id:1 sat_dimacs));
  ignore (Dispatch.submit d ~client:"a" ~conn:1 (wire_spec ~priority:5 ~id:2 sat_dimacs));
  ignore (Dispatch.submit d ~client:"a" ~conn:1 (wire_spec ~priority:5 ~id:3 unsat_dimacs));
  ignore (Dispatch.submit d ~client:"a" ~conn:1 (wire_spec ~priority:1 ~id:4 sat_dimacs));
  let order = List.map (fun c -> c.Dispatch.job_id) (retire_all d) in
  Alcotest.(check (list int)) "completion order follows priority" [ 0; 2; 3; 4; 1 ] order;
  Dispatch.shutdown d

let dispatch_drain_exactly_once () =
  let d = Dispatch.create { dispatch_config with Dispatch.queue_capacity = 8; per_client = 8 } in
  List.iter
    (fun id -> ignore (Dispatch.submit d ~client:"a" ~conn:1 (wire_spec ~id sat_dimacs)))
    [ 0; 1; 2; 3; 4 ];
  let dropped = Dispatch.begin_drain d in
  Alcotest.(check int) "a second drain returns nothing" 0
    (List.length (Dispatch.begin_drain d));
  (match Dispatch.submit d ~client:"a" ~conn:1 (wire_spec ~id:9 sat_dimacs) with
  | Dispatch.Rejected { code = "draining"; _ } -> ()
  | _ -> Alcotest.fail "submits during drain must be rejected");
  let retired = dropped @ retire_all d in
  let ids = List.sort compare (List.map (fun c -> c.Dispatch.job_id) retired) in
  Alcotest.(check (list int)) "every accepted job retires exactly once" [ 0; 1; 2; 3; 4 ] ids;
  let cancelled =
    List.filter
      (fun c -> c.Dispatch.result.Batch.outcome = Job.Unknown Job.Cancelled)
      retired
  in
  Alcotest.(check int) "the four queued jobs were cancelled" 4 (List.length cancelled);
  Alcotest.(check (list int)) "begin_drain returns the queued jobs" [ 1; 2; 3; 4 ]
    (List.map (fun c -> c.Dispatch.job_id) dropped);
  let cs = Dispatch.counters d in
  Alcotest.(check int) "accepted" 5 cs.Drain.accepted;
  Alcotest.(check int) "cancelled_queued" 4 cs.Drain.cancelled_queued;
  Alcotest.(check int) "accounting balances" cs.Drain.accepted
    (cs.Drain.completed + Drain.cancelled cs);
  Dispatch.shutdown d

(* ------------------------------------------------------------------ *)
(* wire answers = one-shot answers *)

let strip_timing (r : Telemetry.record) = { r with queue_wait_s = 0.; solve_time_s = 0. }

let record_bytes r = Json.to_string (Telemetry.json_of_record (strip_timing r))

(* one instance through both paths, each building its job with the one
   front door, Dispatch.job_of_spec: the one-shot path runs it as
   `hyqsat FILE --certify --seed S` does, the wire path through the
   dispatcher.  Returns the one-shot record after checking the wire record
   is byte-identical to it *)
let wire_equals_oneshot ~seed ?format ~name text =
  let js = Protocol.make_job_spec ~name ?format ~certify:true ~seed ~id:0 text in
  let spec =
    match Dispatch.job_of_spec ~seed js with
    | Ok spec -> spec
    | Error reason -> Alcotest.fail ("job_of_spec refused the spec: " ^ reason)
  in
  let _, results = Batch.run ~members:(Batch.resolve ~grid:16 "hybrid") [ spec ] in
  let oneshot = (List.hd results).Batch.record in
  let d = Dispatch.create { dispatch_config with Dispatch.solver = "hybrid" } in
  (match Dispatch.submit d ~client:"t" ~conn:1 js with
  | Dispatch.Accepted _ -> ()
  | Dispatch.Rejected { reason; _ } -> Alcotest.fail ("wire submit rejected: " ^ reason));
  let retired = retire_all d in
  Dispatch.shutdown d;
  (match retired with
  | [ c ] ->
      Alcotest.(check string) "telemetry bytes identical (timing zeroed)"
        (record_bytes oneshot) (record_bytes c.Dispatch.result.Batch.record)
  | _ -> Alcotest.fail "expected exactly one wire result");
  oneshot

let wire_matches_oneshot () =
  let three_sat = Sat.Dimacs.to_string (Workload.Uniform.uf (Testutil.rng 5) 20) in
  let r = wire_equals_oneshot ~seed:4242 ~name:"w.cnf" three_sat in
  Alcotest.(check string) "3-SAT model certified" "model" r.Telemetry.verified;
  (* a 4-SAT input: both paths solve its 3-SAT conversion and certify the
     model against the input *)
  let four_sat = Testutil.random_cnf (Testutil.rng 6) ~n:12 ~m:30 ~k:4 in
  Alcotest.(check bool) "input is not 3-SAT" false (Sat.Cnf.is_3sat four_sat);
  let r = wire_equals_oneshot ~seed:4242 ~name:"w4.cnf" (Sat.Dimacs.to_string four_sat) in
  Alcotest.(check string) "4-SAT answer" "sat" r.Telemetry.outcome;
  Alcotest.(check string) "4-SAT model certified" "model" r.Telemetry.verified

(* two hybrid jobs solved at once by a 2-worker dispatcher answer exactly
   as each does alone through Batch.run: no annealer state crosses jobs *)
let concurrent_hybrid_matches_batch () =
  let formulas =
    [ Workload.Uniform.uf (Testutil.rng 31) 40; Workload.Uniform.uf (Testutil.rng 37) 50 ]
  in
  let name id = Printf.sprintf "c%d.cnf" id in
  let seed id = 7000 + (13 * id) in
  let expected =
    List.mapi
      (fun id f ->
        let spec = Job.make ~name:(name id) ~certify:true ~seed:(seed id) ~id f in
        let _, results = Batch.run ~members:(Batch.resolve "hybrid") [ spec ] in
        record_bytes (List.hd results).Batch.record)
      formulas
  in
  let d =
    Dispatch.create
      { dispatch_config with Dispatch.workers = 2; solver = "hybrid"; per_client = 4 }
  in
  List.iteri
    (fun id f ->
      let wire =
        Protocol.make_job_spec ~name:(name id) ~certify:true ~seed:(seed id) ~id
          (Sat.Dimacs.to_string f)
      in
      match Dispatch.submit d ~client:"t" ~conn:1 wire with
      | Dispatch.Accepted _ -> ()
      | _ -> Alcotest.fail "wire submit rejected")
    formulas;
  Alcotest.(check int) "both jobs running at once" 2 (Dispatch.running d);
  let retired = retire_all d in
  Dispatch.shutdown d;
  Alcotest.(check int) "both jobs retired" 2 (List.length retired);
  List.iter
    (fun c ->
      let record = c.Dispatch.result.Batch.record in
      Alcotest.(check bool)
        (Printf.sprintf "job %d consulted the annealer" c.Dispatch.job_id)
        true (record.Telemetry.qa_calls > 0);
      Alcotest.(check string)
        (Printf.sprintf "job %d telemetry bytes identical (timing zeroed)" c.Dispatch.job_id)
        (List.nth expected c.Dispatch.job_id)
        (record_bytes record))
    retired

let demo_wcnf = "p wcnf 3 4 10\n10 1 2 0\n3 -1 0\n2 -2 3 0\n4 -3 0\n"

let wire_wcnf_matches_oneshot () =
  let oneshot = wire_equals_oneshot ~seed:4242 ~format:"wcnf" ~name:"o.wcnf" demo_wcnf in
  Alcotest.(check int) "one-shot finds the optimum" 2 oneshot.Telemetry.cost;
  Alcotest.(check int) "one-shot proves the bound" 2 oneshot.Telemetry.lower_bound;
  Alcotest.(check string) "one-shot certifies optimality" "optimal"
    oneshot.Telemetry.verified;
  (* a plain CNF sent as "maxsat": every clause soft at weight 1, so the
     optimum is the fewest clauses any assignment falsifies *)
  let f = Testutil.random_cnf (Testutil.rng 8) ~n:6 ~m:40 ~k:3 in
  let maxsat =
    wire_equals_oneshot ~seed:4242 ~format:"maxsat" ~name:"m.cnf" (Sat.Dimacs.to_string f)
  in
  Alcotest.(check int) "maxsat optimum" (Oracle.Brute.min_unsatisfied f) maxsat.Telemetry.cost;
  Alcotest.(check int) "maxsat bound closed" maxsat.Telemetry.cost maxsat.Telemetry.lower_bound;
  Alcotest.(check string) "maxsat optimality certified" "optimal" maxsat.Telemetry.verified

(* a weighted colouring whose WalkSAT incumbent under seed 1 breaks a hard
   clause, so both paths seed the exact search from the annealer *)
let wire_wcnf_fallback_matches_oneshot () =
  let w =
    Workload.Graph_coloring.weighted (Testutil.rng 23) ~nodes:10 ~edges:23 ~soft_edges:10
  in
  let seed = 1 in
  let _, walk = Hyqsat.Optimize.incumbent (Testutil.rng seed) w in
  Alcotest.(check bool) "WalkSAT incumbent breaks a hard clause" false
    (Sat.Wcnf.hard_satisfied w walk);
  let oneshot = wire_equals_oneshot ~seed ~format:"wcnf" ~name:"o.wcnf" (Sat.Wcnf.to_string w) in
  Alcotest.(check string) "one-shot certifies optimality" "optimal"
    oneshot.Telemetry.verified

let wire_wcnf_rejects () =
  let d = Dispatch.create dispatch_config in
  (* malformed optimisation inputs bounce at admission with code "parse" —
     they never reach the queue.  "maxsat" reads DIMACS, so a WDIMACS text
     sent under it is malformed too *)
  List.iter
    (fun (format, text) ->
      match
        Dispatch.submit d ~client:"a" ~conn:1 (Protocol.make_job_spec ~format ~id:0 text)
      with
      | Dispatch.Rejected { code = "parse"; reason; _ } ->
          Alcotest.(check bool) "reason gives the line" true
            (String.starts_with ~prefix:"line " reason)
      | _ -> Alcotest.failf "bad %s input should be rejected with code parse" format)
    [ ("wcnf", "w nonsense\n"); ("maxsat", demo_wcnf) ];
  Alcotest.(check bool) "nothing queued or running" true (Dispatch.idle d);
  Dispatch.shutdown d

(* ------------------------------------------------------------------ *)
(* deterministic prometheus rendering *)

let prometheus_deterministic () =
  let render feed =
    let ctx = Obs.Ctx.create () in
    List.iter (fun name -> Obs.Metrics.incr ctx name) feed;
    Obs.Metrics.gauge ctx "depth" 3.0;
    let out = Obs.Export.prometheus_string (Obs.Ctx.snapshot ctx) in
    Obs.Ctx.close ctx;
    out
  in
  let names =
    [
      Obs.Metrics.labelled "jobs_total" [ ("outcome", "sat") ];
      Obs.Metrics.labelled "jobs_total" [ ("outcome", "unsat") ];
      Obs.Metrics.labelled "jobs_total" [ ("outcome", "unknown:timeout") ];
      "jobs";
      "jobs_totals_other";
      Obs.Metrics.labelled "rejections_total" [ ("code", "quota") ];
    ]
  in
  let a = render names in
  let b = render (List.rev names) in
  Alcotest.(check string) "insertion order does not change the export" a b;
  (* family grouping: the bare counter must not interleave into the
     labelled family's samples *)
  let lines = String.split_on_char '\n' a in
  let type_lines = List.filter (fun l -> String.length l > 6 && String.sub l 0 6 = "# TYPE") lines in
  Alcotest.(check int) "one TYPE line per family" 5 (List.length type_lines)

(* ------------------------------------------------------------------ *)
(* end-to-end daemon over a Unix socket *)

let temp_socket () =
  let path = Filename.temp_file "hyqsat-test" ".sock" in
  Sys.remove path;
  path

(* loopback HTTP GET against the metrics endpoint: the response body; a
   non-200 status fails the test *)
let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let request = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      let rec write_all off =
        if off < String.length request then
          write_all (off + Unix.write_substring fd request off (String.length request - off))
      in
      write_all 0;
      let buf = Bytes.create 65536 in
      let out = Buffer.create 1024 in
      let rec slurp () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes out buf 0 n;
            slurp ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> slurp ()
      in
      slurp ();
      let response = Buffer.contents out in
      let body =
        (* headers end at the first blank line *)
        let rec find i =
          if i + 3 >= String.length response then None
          else if String.sub response i 4 = "\r\n\r\n" then Some (i + 4)
          else find (i + 1)
        in
        match find 0 with
        | Some i -> String.sub response i (String.length response - i)
        | None -> ""
      in
      match String.split_on_char ' ' response with
      | _ :: "200" :: _ -> body
      | _ ->
          let status =
            match String.index_opt response '\r' with
            | Some i -> String.sub response 0 i
            | None -> response
          in
          Alcotest.failf "http: %s" status)

let daemon_end_to_end () =
  let socket = temp_socket () in
  let obs = Obs.Ctx.create () in
  let stop = Atomic.make false in
  let ready = Atomic.make None in
  let report = ref None in
  let config =
    {
      Daemon.default_config with
      Daemon.unix_socket = Some socket;
      metrics_port = Some 0;
      dispatch =
        { Dispatch.default_config with Dispatch.workers = 1; queue_capacity = 16; per_client = 16 };
    }
  in
  let th =
    Thread.create
      (fun () ->
        report :=
          Some (Daemon.run ~obs ~stop ~on_ready:(fun r -> Atomic.set ready (Some r)) config))
      ()
  in
  let rec await_ready n =
    match Atomic.get ready with
    | Some r -> r
    | None ->
        if n = 0 then Alcotest.fail "daemon never became ready";
        Unix.sleepf 0.01;
        await_ready (n - 1)
  in
  let r = await_ready 500 in
  let metrics_port = Option.get r.Daemon.r_metrics_port in
  let t = Client.connect_unix socket in
  Client.handshake ~client:"e2e" t;
  Client.send t (Protocol.Subscribe { events = true });
  let jobs = [ (0, sat_dimacs); (1, unsat_dimacs); (2, sat_dimacs); (3, unsat_dimacs) ] in
  List.iter
    (fun (id, dimacs) ->
      Client.send t
        (Protocol.Submit
           (Protocol.make_job_spec ~name:(Printf.sprintf "e2e-%d" id) ~certify:true
              ~seed:(id * 31) ~id dimacs)))
    jobs;
  let results = Hashtbl.create 4 in
  let events = ref 0 in
  let accepted = ref 0 in
  while Hashtbl.length results < List.length jobs do
    match Client.recv ~timeout_s:60. t with
    | Protocol.Result { id; record; model } -> Hashtbl.replace results id (record, model)
    | Protocol.Accepted _ -> incr accepted
    | Protocol.Event _ -> incr events
    | Protocol.Rejected { code; reason; _ } ->
        Alcotest.failf "unexpected rejection (%s): %s" code reason
    | _ -> ()
  done;
  Alcotest.(check int) "every submit was accepted" 4 !accepted;
  Alcotest.(check bool) "progress events streamed" true (!events > 0);
  List.iter
    (fun (id, expected, verified) ->
      let record, model = Hashtbl.find results id in
      Alcotest.(check string)
        (Printf.sprintf "job %d outcome" id)
        expected record.Telemetry.outcome;
      Alcotest.(check string)
        (Printf.sprintf "job %d verified" id)
        verified record.Telemetry.verified;
      if expected = "sat" then
        Alcotest.(check bool)
          (Printf.sprintf "job %d model present" id)
          true (model <> None))
    [ (0, "sat", "model"); (1, "unsat", "proof"); (2, "sat", "model"); (3, "unsat", "proof") ];
  (* scrape the metrics endpoint while the daemon is live *)
  let body = http_get ~port:metrics_port "/metrics" in
  let has_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "metrics expose jobs_total" true (has_sub body "jobs_total");
  Alcotest.(check bool) "health endpoint answers" true
    (has_sub (http_get ~port:metrics_port "/healthz") "ok");
  (* graceful stop: the server says goodbye with a drain summary *)
  Atomic.set stop true;
  let rec await_drained n =
    if n = 0 then Alcotest.fail "no Drained message before shutdown";
    match Client.recv ~timeout_s:30. t with
    | Protocol.Drained { accepted; completed; cancelled } ->
        Alcotest.(check int) "drained.accepted" 4 accepted;
        Alcotest.(check int) "drained.completed" 4 completed;
        Alcotest.(check int) "drained.cancelled" 0 cancelled
    | _ -> await_drained (n - 1)
  in
  await_drained 50;
  Client.close t;
  Thread.join th;
  Obs.Ctx.close obs;
  (match !report with
  | Some rep ->
      Alcotest.(check int) "report.accepted" 4 rep.Drain.accepted;
      Alcotest.(check int) "report.completed" 4 rep.Drain.completed;
      Alcotest.(check int) "report.cancelled" 0 (Drain.cancelled rep)
  | None -> Alcotest.fail "daemon returned no report");
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

(* One daemon session on [obs]: a subscribed client submits [ids], reads
   until the drain summary and returns the job ids its events named.  The
   client never unsubscribes, so the daemon's span tap would still count
   a subscriber if it outlived [run]. *)
let daemon_session ~obs ids =
  let socket = temp_socket () in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let config =
    {
      Daemon.default_config with
      Daemon.unix_socket = Some socket;
      dispatch =
        { Dispatch.default_config with Dispatch.workers = 1; queue_capacity = 16; per_client = 16 };
    }
  in
  let th =
    Thread.create
      (fun () -> ignore (Daemon.run ~obs ~stop ~on_ready:(fun _ -> Atomic.set ready true) config))
      ()
  in
  let rec await n =
    if not (Atomic.get ready) then begin
      if n = 0 then Alcotest.fail "daemon never became ready";
      Unix.sleepf 0.01;
      await (n - 1)
    end
  in
  await 500;
  let t = Client.connect_unix socket in
  Client.handshake ~client:"sessions" t;
  Client.send t (Protocol.Subscribe { events = true });
  List.iter (fun id -> Client.send t (Protocol.Submit (wire_spec ~id sat_dimacs))) ids;
  let event_jobs = ref [] in
  let rec read ~results ~stopping =
    match Client.recv ~timeout_s:60. t with
    | Protocol.Drained _ -> ()
    | Protocol.Event { job = Some id; _ } ->
        event_jobs := id :: !event_jobs;
        read ~results ~stopping
    | Protocol.Result _ ->
        let results = results + 1 in
        (* every job span stops before its result is queued, so its event
           reaches the client ahead of the drain summary *)
        if results = List.length ids && not stopping then Atomic.set stop true;
        read ~results ~stopping:(stopping || results = List.length ids)
    | Protocol.Rejected { code; reason; _ } ->
        Alcotest.failf "unexpected rejection (%s): %s" code reason
    | _ -> read ~results ~stopping
  in
  read ~results:0 ~stopping:false;
  Client.close t;
  Thread.join th;
  List.sort_uniq compare !event_jobs

(* the span tap is an ordinary sink: each daemon detaches its own on the
   way out, so a second daemon on the same live context streams only its
   own jobs, and a sink the caller attached keeps receiving throughout *)
let daemon_sessions_share_ctx () =
  let obs = Obs.Ctx.create () in
  let job_spans = ref [] in
  Obs.Ctx.attach obs
    {
      Obs.Ctx.on_span =
        (fun r ->
          if r.Obs.Ctx.name = "job" then
            job_spans := List.assoc "id" r.Obs.Ctx.attrs :: !job_spans);
      on_metrics = ignore;
      on_close = ignore;
    };
  Alcotest.(check (list int)) "first daemon streams its jobs" [ 0; 1 ]
    (daemon_session ~obs [ 0; 1 ]);
  Alcotest.(check (list int)) "second daemon streams only its jobs" [ 10; 11 ]
    (daemon_session ~obs [ 10; 11 ]);
  Obs.Ctx.close obs;
  Alcotest.(check (list string)) "the caller's sink saw every job" [ "0"; "1"; "10"; "11" ]
    (List.sort compare !job_spans)

let daemon_drain_cancels_queued () =
  let socket = temp_socket () in
  let stop = Atomic.make false in
  let ready = Atomic.make None in
  let report = ref None in
  let config =
    {
      Daemon.default_config with
      Daemon.unix_socket = Some socket;
      dispatch =
        {
          Dispatch.default_config with
          Dispatch.workers = 1;
          queue_capacity = 16;
          per_client = 16;
          grace_s = 0.05;
        };
    }
  in
  let th =
    Thread.create
      (fun () ->
        report :=
          Some (Daemon.run ~stop ~on_ready:(fun r -> Atomic.set ready (Some r)) config))
      ()
  in
  let rec await n =
    if Atomic.get ready = None then begin
      if n = 0 then Alcotest.fail "daemon never became ready";
      Unix.sleepf 0.01;
      await (n - 1)
    end
  in
  await 500;
  let t = Client.connect_unix socket in
  Client.handshake t;
  (* several jobs on one worker, then stop immediately: whatever had not
     started must come back unknown:cancelled, exactly once each *)
  List.iteri
    (fun id dimacs ->
      Client.send t
        (Protocol.Submit (Protocol.make_job_spec ~name:(string_of_int id) ~seed:id ~id dimacs)))
    [ sat_dimacs; sat_dimacs; sat_dimacs; sat_dimacs ];
  (* only stop once all four are admitted — otherwise the drain races the
     submits and rejects them as "draining" *)
  let outcomes = Hashtbl.create 4 in
  let admitted = ref 0 in
  let rec collect n =
    if n > 0 then
      match Client.recv ~timeout_s:60. t with
      | Protocol.Accepted _ ->
          incr admitted;
          if !admitted = 4 then Atomic.set stop true;
          collect n
      | Protocol.Result { id; record; _ } ->
          if Hashtbl.mem outcomes id then Alcotest.failf "job %d answered twice" id;
          Hashtbl.replace outcomes id record.Telemetry.outcome;
          collect n
      | Protocol.Drained _ -> ()
      | _ -> collect (n - 1)
  in
  collect 10_000;
  Client.close t;
  Thread.join th;
  (match !report with
  | Some rep ->
      Alcotest.(check int) "all four accepted" 4 rep.Drain.accepted;
      Alcotest.(check int) "accounting balances" 4
        (rep.Drain.completed + Drain.cancelled rep)
  | None -> Alcotest.fail "daemon returned no report");
  Hashtbl.iter
    (fun id outcome ->
      if outcome <> "sat" && outcome <> "unknown:cancelled" then
        Alcotest.failf "job %d: unexpected outcome %s" id outcome)
    outcomes

(* this process's open descriptors and OS threads (a worker domain is one) *)
let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let os_threads () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        if String.starts_with ~prefix:"Threads:" line then
          int_of_string (String.trim (String.sub line 8 (String.length line - 8)))
        else find ()
      in
      find ())

(* a daemon that fails to start frees everything it opened: listening
   sockets and the socket file, the self-pipe and the worker domains.
   After one warm-up failure, three more failures of each kind leave the
   process with the descriptors and threads it had, and the error names
   the address it could not bind *)
let daemon_failed_start_frees_everything () =
  if not (Sys.file_exists "/proc/self/fd") then begin
    print_endline "skipped: no /proc/self/fd to count descriptors in";
    Alcotest.skip ()
  end;
  let dispatch = { Dispatch.default_config with Dispatch.workers = 2 } in
  let missing =
    Filename.concat
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "hyqsat-missing-%d" (Unix.getpid ())))
      "x.sock"
  in
  let socket = temp_socket () in
  let dir = temp_socket () in
  Unix.mkdir dir 0o700;
  let held = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let obs = Obs.Ctx.create () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close held with Unix.Unix_error _ -> ());
      Unix.rmdir dir;
      Obs.Ctx.close obs)
    (fun () ->
      Unix.bind held (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen held 1;
      let held_port =
        match Unix.getsockname held with Unix.ADDR_INET (_, p) -> p | _ -> assert false
      in
      let cases =
        [
          ( "socket in a missing directory",
            { Daemon.default_config with Daemon.unix_socket = Some missing; dispatch },
            ignore,
            function Unix.Unix_error (Unix.ENOENT, "bind", arg) -> arg = missing | _ -> false );
          ( "TCP port already held",
            {
              Daemon.default_config with
              Daemon.unix_socket = Some socket;
              tcp_port = Some held_port;
              dispatch;
            },
            ignore,
            function
            | Unix.Unix_error (Unix.EADDRINUSE, "bind", arg) ->
                arg = Printf.sprintf "127.0.0.1:%d" held_port
            | _ -> false );
          ( "socket path is a directory",
            { Daemon.default_config with Daemon.unix_socket = Some dir; dispatch },
            ignore,
            function Unix.Unix_error (_, "unlink", arg) -> arg = dir | _ -> false );
          ( "on_ready raises",
            { Daemon.default_config with Daemon.unix_socket = Some socket; dispatch },
            (fun _ -> raise Exit),
            ( = ) Exit );
        ]
      in
      let fail_once (name, config, on_ready, expected) =
        (match Daemon.run ~obs ~on_ready config with
        | _ -> Alcotest.failf "%s: the daemon started" name
        | exception e ->
            if not (expected e) then
              Alcotest.failf "%s: unexpected exception %s" name (Printexc.to_string e));
        Alcotest.(check bool) (name ^ ": no socket file left") false (Sys.file_exists socket)
      in
      (* read once the counts have held still for 100 ms (at most 2 s): a
         joined domain's OS thread may take a moment to exit *)
      let settled () =
        let read () = (open_fds (), os_threads ()) in
        let rec go last same n =
          if same = 5 || n = 0 then last
          else begin
            Unix.sleepf 0.02;
            let now = read () in
            if now = last then go last (same + 1) (n - 1) else go now 0 (n - 1)
          end
        in
        go (read ()) 0 100
      in
      fail_once (List.hd cases);
      let warm = settled () in
      List.iter
        (fun case ->
          for _ = 1 to 3 do
            fail_once case
          done)
        cases;
      Alcotest.(check (pair int int)) "open fds and threads as after the warm-up" warm (settled ()))

(* the blank line that ends a request is found however reads split it,
   and a request that fills the cap without one is answered 431 *)
let metrics_request_split_reads () =
  let read request chunk =
    Server.Metrics_http.on_read ~metrics:(fun () -> "") request (Bytes.of_string chunk)
      (String.length chunk)
  in
  List.iter
    (fun text ->
      for cut = 0 to String.length text do
        let request = Buffer.create 64 in
        let first = read request (String.sub text 0 cut) in
        let second = read request (String.sub text cut (String.length text - cut)) in
        Alcotest.(check bool)
          (Printf.sprintf "%S cut at %d" text cut)
          true
          (first <> None || second <> None)
      done)
    [ "GET /metrics HTTP/1.0\r\n\r\n"; "GET /metrics\n\n"; "\r\n\r\n" ];
  let request = Buffer.create 64 in
  Alcotest.(check bool) "no blank line yet" true
    (read request "GET /metrics HTTP/1.0\r\nHost: x\r\n" = None);
  match read request (String.make (8 * 1024) 'x') with
  | Some r -> Alcotest.(check string) "over the cap" "HTTP/1.0 431" (String.sub r 0 12)
  | None -> Alcotest.fail "an over-cap request must be answered"

(* a /metrics client that sends header bytes without ever ending the
   request is answered 4xx and cut off at the request cap, and the one
   event loop keeps serving wire clients meanwhile *)
let daemon_metrics_request_cap () =
  let socket = temp_socket () in
  let stop = Atomic.make false in
  let ready = Atomic.make None in
  let config =
    { Daemon.default_config with Daemon.unix_socket = Some socket; metrics_port = Some 0 }
  in
  let th =
    Thread.create
      (fun () ->
        ignore (Daemon.run ~stop ~on_ready:(fun r -> Atomic.set ready (Some r)) config))
      ()
  in
  let rec await_ready n =
    match Atomic.get ready with
    | Some r -> r
    | None ->
        if n = 0 then Alcotest.fail "daemon never became ready";
        Unix.sleepf 0.01;
        await_ready (n - 1)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Atomic.set stop true;
      Thread.join th)
    (fun () ->
      let port = Option.get (await_ready 500).Daemon.r_metrics_port in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let request = "GET /metrics HTTP/1.0\r\n" ^ String.make (16 * 1024) 'x' in
      let rec write_all off =
        if off < String.length request then
          write_all (off + Unix.write_substring fd request off (String.length request - off))
      in
      write_all 0;
      (* read until the daemon closes, for at most 1 s *)
      let deadline = Unix.gettimeofday () +. 1.0 in
      let buf = Bytes.create 4096 in
      let out = Buffer.create 256 in
      let rec slurp () =
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then Alcotest.fail "no response and no close within 1 s";
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> slurp ()
        | _ -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes out buf 0 n;
                slurp ()
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ())
      in
      slurp ();
      let response = Buffer.contents out in
      Alcotest.(check bool)
        (Printf.sprintf "4xx status (got %S)" response)
        true
        (String.length response >= 10 && String.sub response 0 10 = "HTTP/1.0 4");
      let t = Client.connect_unix socket in
      Fun.protect
        ~finally:(fun () -> Client.close t)
        (fun () ->
          Client.handshake t;
          Client.send t (Protocol.Ping 7);
          match Client.recv ~timeout_s:5. t with
          | Protocol.Pong 7 -> ()
          | _ -> Alcotest.fail "wire client got no Pong"))

(* a client that writes requests and never reads the replies stops being
   read once its unsent replies pass the daemon's 1 MiB output cap: its
   writes block, other clients are still served, and once it reads, every
   reply arrives in order *)
let daemon_output_backpressure () =
  let socket = temp_socket () in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let config = { Daemon.default_config with Daemon.unix_socket = Some socket } in
  let th =
    Thread.create
      (fun () -> ignore (Daemon.run ~stop ~on_ready:(fun _ -> Atomic.set ready true) config))
      ()
  in
  let rec await_ready n =
    if not (Atomic.get ready) then begin
      if n = 0 then Alcotest.fail "daemon never became ready";
      Unix.sleepf 0.01;
      await_ready (n - 1)
    end
  in
  await_ready 500;
  (* ~8 MB of Pongs: far past the cap plus both sockets' kernel buffers *)
  let pings = 200_000 in
  let stream =
    String.concat ""
      (List.init pings (fun i -> Codec.frame (Protocol.encode_client (Protocol.Ping i))))
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let written = Atomic.make false in
  let writer = ref None in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Option.iter Thread.join !writer;
      Atomic.set stop true;
      Thread.join th)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      writer :=
        Some
          (Thread.create
             (fun () ->
               let rec go off =
                 if off < String.length stream then
                   go (off + Unix.write_substring fd stream off (String.length stream - off))
               in
               (try go 0 with Unix.Unix_error _ -> ());
               Atomic.set written true)
             ());
      Unix.sleepf 3.0;
      Alcotest.(check bool) "the non-reading client's writes are blocked" false
        (Atomic.get written);
      let t = Client.connect_unix socket in
      Fun.protect
        ~finally:(fun () -> Client.close t)
        (fun () ->
          Client.send t (Protocol.Ping (-1));
          match Client.recv ~timeout_s:5. t with
          | Protocol.Pong (-1) -> ()
          | _ -> Alcotest.fail "another client got no Pong");
      let dec = Codec.decoder () in
      let buf = Bytes.create 65536 in
      let deadline = Unix.gettimeofday () +. 60. in
      let rec read_pongs next =
        if next < pings then
          match Codec.next dec with
          | Ok (Some payload) -> (
              match Protocol.decode_server payload with
              | Ok (Protocol.Pong n) when n = next -> read_pongs (next + 1)
              | Ok (Protocol.Pong n) -> Alcotest.failf "Pong %d arrived where %d was due" n next
              | _ -> Alcotest.failf "unexpected reply where Pong %d was due" next)
          | Error e -> Alcotest.failf "decoder error: %s" (Codec.error_label e)
          | Ok None ->
              if Unix.gettimeofday () > deadline then
                Alcotest.failf "only %d of %d Pongs within 60 s" next pings;
              (match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> Alcotest.failf "daemon closed after %d of %d Pongs" next pings
              | n -> Codec.feed dec ~len:n buf);
              read_pongs next
      in
      read_pongs 0;
      Option.iter Thread.join !writer;
      writer := None;
      Alcotest.(check bool) "the writer finished once the replies drained" true
        (Atomic.get written))

(* the daemon serves at most 256 connections at once (its
   [max_connections]): the 257th client is accepted and closed at once,
   and an admitted client is still served.  Every client is a plain socket
   in this thread *)
(* a second daemon on a live daemon's socket path is refused with
   EADDRINUSE and takes nothing over: the path stays, and the first daemon
   still answers on it.  The second daemon is told to stop at once, so a
   daemon that did take the path would return instead of serving *)
let daemon_refuses_live_socket () =
  let socket = temp_socket () in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let config = { Daemon.default_config with Daemon.unix_socket = Some socket } in
  let th =
    Thread.create
      (fun () -> ignore (Daemon.run ~stop ~on_ready:(fun _ -> Atomic.set ready true) config))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join th)
    (fun () ->
      let rec await_ready n =
        if not (Atomic.get ready) then begin
          if n = 0 then Alcotest.fail "daemon never became ready";
          Unix.sleepf 0.01;
          await_ready (n - 1)
        end
      in
      await_ready 500;
      (match Daemon.run ~stop:(Atomic.make true) config with
      | _ -> Alcotest.fail "a second daemon started on a live socket"
      | exception Unix.Unix_error (Unix.EADDRINUSE, "bind", path) ->
          Alcotest.(check string) "the error names the path" socket path);
      Alcotest.(check bool) "socket file still there" true (Sys.file_exists socket);
      let t = Client.connect_unix socket in
      Fun.protect
        ~finally:(fun () -> Client.close t)
        (fun () ->
          Client.handshake t;
          Client.send t (Protocol.Ping 9);
          match Client.recv ~timeout_s:5. t with
          | Protocol.Pong 9 -> ()
          | _ -> Alcotest.fail "the first daemon got no Ping through"))

let daemon_connection_cap () =
  let cap = 256 in
  let socket = temp_socket () in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let config = { Daemon.default_config with Daemon.unix_socket = Some socket } in
  let th =
    Thread.create
      (fun () -> ignore (Daemon.run ~stop ~on_ready:(fun _ -> Atomic.set ready true) config))
      ()
  in
  let rec await_ready n =
    if not (Atomic.get ready) then begin
      if n = 0 then Alcotest.fail "daemon never became ready";
      Unix.sleepf 0.01;
      await_ready (n - 1)
    end
  in
  await_ready 500;
  let fds = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !fds;
      Atomic.set stop true;
      Thread.join th)
    (fun () ->
      for _ = 0 to cap do
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        fds := fd :: !fds;
        Unix.connect fd (Unix.ADDR_UNIX socket)
      done;
      let clients = List.rev !fds in
      let buf = Bytes.create 65536 in
      (* a client the daemon closed reads end of file; the others read
         nothing, since no client has sent a byte *)
      let closed fd =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> true
        | _ -> false
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
      in
      let await_refused () =
        match Unix.select clients [] [] 10. with
        | [], _, _ -> Alcotest.fail "no client was refused within 10 s"
        | readable, _, _ -> List.filter closed readable
      in
      let refused = await_refused () in
      let rest = List.filter (fun fd -> not (List.mem fd refused)) clients in
      (match Unix.select rest [] [] 0.5 with
      | [], _, _ -> ()
      | more, _, _ -> Alcotest.failf "%d more clients readable" (List.length more));
      Alcotest.(check int) "one client refused" 1 (List.length refused);
      let fd = List.hd rest in
      let dec = Codec.decoder () in
      let send msg =
        let frame = Codec.frame (Protocol.encode_client msg) in
        ignore (Unix.write_substring fd frame 0 (String.length frame))
      in
      let deadline = Unix.gettimeofday () +. 60. in
      let rec recv () =
        match Codec.next dec with
        | Ok (Some payload) -> (
            match Protocol.decode_server payload with
            | Ok m -> m
            | Error e -> Alcotest.failf "undecodable reply: %s" e)
        | Error e -> Alcotest.failf "decoder error: %s" (Codec.error_label e)
        | Ok None ->
            let left = deadline -. Unix.gettimeofday () in
            if left <= 0. then Alcotest.fail "no reply within 60 s";
            (match Unix.select [ fd ] [] [] left with
            | [], _, _ -> ()
            | _ -> (
                match Unix.read fd buf 0 (Bytes.length buf) with
                | 0 -> Alcotest.fail "an admitted client was closed"
                | n -> Codec.feed dec ~len:n buf));
            recv ()
      in
      send (Protocol.Ping 5);
      (match recv () with
      | Protocol.Pong 5 -> ()
      | _ -> Alcotest.fail "an admitted client got no Pong");
      send (Protocol.Submit (Protocol.make_job_spec ~name:"cap" ~seed:1 ~id:9 sat_dimacs));
      let rec await_result () =
        match recv () with
        | Protocol.Result { id = 9; record; _ } ->
            Alcotest.(check string) "job answered" "sat" record.Telemetry.outcome
        | Protocol.Rejected { code; reason; _ } ->
            Alcotest.failf "job rejected (%s): %s" code reason
        | _ -> await_result ()
      in
      await_result ())

let suite =
  [
    ( "server.codec",
      [
        Alcotest.test_case "round-trip" `Quick codec_roundtrip;
        Alcotest.test_case "partial reads resume" `Quick codec_partial_reads;
        Alcotest.test_case "short writes drain" `Quick codec_short_writes;
        Alcotest.test_case "oversized frames rejected" `Quick codec_oversized;
        Alcotest.test_case "junk bytes rejected" `Quick codec_junk;
        QCheck_alcotest.to_alcotest codec_roundtrip_prop;
      ] );
    ( "server.protocol",
      [
        Alcotest.test_case "message round-trips" `Quick protocol_roundtrips;
        Alcotest.test_case "schema versioning" `Quick protocol_versioning;
        Alcotest.test_case "nesting cap" `Quick protocol_nesting_cap;
      ] );
    ( "server.admission",
      [
        Alcotest.test_case "jobq priority order" `Quick jobq_order;
        Alcotest.test_case "jobq clear" `Quick jobq_clear;
        Alcotest.test_case "quota accounting" `Quick quota_accounting;
        Alcotest.test_case "backpressure: queue_full + retry-after" `Quick dispatch_backpressure;
        Alcotest.test_case "per-client quota over the dispatcher" `Quick dispatch_quota;
        Alcotest.test_case "unparseable DIMACS rejected" `Quick dispatch_parse_reject;
        Alcotest.test_case "out-of-range fields rejected" `Quick dispatch_field_rejects;
        Alcotest.test_case "hostile DIMACS header rejected" `Quick dispatch_hostile_header_reject;
        Alcotest.test_case "priority scheduling order" `Quick dispatch_priority_order;
        Alcotest.test_case "drain cancels queued exactly once" `Quick dispatch_drain_exactly_once;
      ] );
    ( "server.telemetry",
      [
        Alcotest.test_case "wire record = one-shot record" `Slow wire_matches_oneshot;
        Alcotest.test_case "concurrent hybrid jobs = batch records" `Slow
          concurrent_hybrid_matches_batch;
        Alcotest.test_case "wire wcnf record = one-shot record" `Slow
          wire_wcnf_matches_oneshot;
        Alcotest.test_case "wire wcnf record = one-shot record (annealer fallback)" `Slow
          wire_wcnf_fallback_matches_oneshot;
        Alcotest.test_case "wcnf wire rejects" `Quick wire_wcnf_rejects;
        Alcotest.test_case "prometheus export is deterministic" `Quick prometheus_deterministic;
        Alcotest.test_case "metrics request split across reads" `Quick
          metrics_request_split_reads;
      ] );
    ( "server.daemon",
      [
        Alcotest.test_case "end-to-end over unix socket" `Slow daemon_end_to_end;
        Alcotest.test_case "drain cancels queued jobs" `Slow daemon_drain_cancels_queued;
        Alcotest.test_case "sequential daemons on one context" `Slow daemon_sessions_share_ctx;
        Alcotest.test_case "metrics request capped" `Quick daemon_metrics_request_cap;
        Alcotest.test_case "connection cap" `Quick daemon_connection_cap;
        Alcotest.test_case "output backpressure on a non-reading client" `Quick
          daemon_output_backpressure;
        Alcotest.test_case "failed start frees everything" `Quick
          daemon_failed_start_frees_everything;
        Alcotest.test_case "second daemon refused on a live socket" `Quick
          daemon_refuses_live_socket;
      ] );
  ]
