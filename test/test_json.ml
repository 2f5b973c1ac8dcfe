(* Tests for the shared JSON codec: the parser's nesting cap, non-finite
   floats, and golden bytes for the documents that leave
   the process (wire messages, telemetry, the drain report).  The golden
   strings were captured from the emitter the codec replaced, so a change
   here is a wire-format change. *)

module Protocol = Server.Protocol
module Telemetry = Service.Telemetry

let nested depth = String.make depth '[' ^ String.make depth ']'

let parse_depth_cap () =
  (match Json.parse (nested Json.max_depth) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%d levels rejected: %s" Json.max_depth (Json.error_message e));
  (match Json.parse (nested (Json.max_depth + 1)) with
  | Error (Json.Too_deep d) -> Alcotest.(check int) "error names the cap" Json.max_depth d
  | Error (Json.Syntax m) -> Alcotest.failf "expected a depth error, got %s" m
  | Ok _ -> Alcotest.fail "nesting past the cap must be rejected");
  (* objects count the same as arrays, and the cap holds however deep the
     input goes: it is checked before each recursion *)
  let objects = String.concat "" (List.init 65 (fun _ -> "{\"a\":")) ^ "1" ^ String.make 65 '}' in
  (match Json.parse objects with
  | Error (Json.Too_deep _) -> ()
  | _ -> Alcotest.fail "deep objects must be rejected");
  match Json.parse (String.make 1_000_000 '[') with
  | Error (Json.Too_deep _) -> ()
  | _ -> Alcotest.fail "a million open brackets must be rejected at the cap"

let non_finite_floats () =
  List.iter
    (fun (label, x) ->
      let s = Json.to_string (Obj [ ("x", Num x) ]) in
      Alcotest.(check string) label {|{"x":null}|} s;
      match Json.parse s with
      | Ok (Obj [ ("x", v) ]) ->
          Alcotest.(check bool) (label ^ " reads back as nan") true (Float.is_nan (Json.as_num v))
      | Ok _ -> Alcotest.fail "wrong shape"
      | Error e -> Alcotest.failf "%s did not parse back: %s" label (Json.error_message e))
    [ ("nan", Float.nan); ("inf", Float.infinity); ("-inf", Float.neg_infinity) ]

(* ------------------------------------------------------------------ *)
(* golden bytes *)

let record =
  {
    Telemetry.job_id = 4;
    job_name = "a \"q\"\t.cnf";
    outcome = "sat";
    verified = "model";
    winner = "hybrid";
    attempts = 2;
    queue_wait_s = 0.00125;
    solve_time_s = 0.1 +. 0.2;
    iterations = 1234;
    qa_calls = 7;
    qa_failures = 1;
    degraded = 0;
    strategy_uses = [| 3; 0; 2; 1 |];
    warm_start = true;
    reused_clauses = 5;
    cost = -1;
    lower_bound = -1;
  }

let optimisation_record =
  {
    record with
    Telemetry.job_id = 5;
    job_name = "w\001.wcnf";
    queue_wait_s = 0.;
    solve_time_s = 1e-7;
    warm_start = false;
    cost = 3;
    lower_bound = 3;
    verified = "optimal";
  }

let golden_bytes () =
  Alcotest.(check string) "submit"
    {|{"schema_version":5,"kind":"submit","id":4,"name":"a \"q\".cnf","dimacs":"p cnf 1 1\n1 0\n","certify":true,"timeout_s":1.5,"max_iterations":100,"retries":1,"seed":7,"priority":3,"session":"s1","format":"wcnf","gap_limit":2}|}
    (Protocol.encode_client
       (Protocol.Submit
          (Protocol.make_job_spec ~name:"a \"q\".cnf" ~format:"wcnf" ~gap_limit:2 ~certify:true
             ~timeout_s:1.5 ~max_iterations:100 ~retries:1 ~seed:7 ~priority:3 ~session:"s1"
             ~id:4 "p cnf 1 1\n1 0\n")));
  Alcotest.(check string) "result"
    {|{"schema_version":5,"kind":"result","id":4,"record":{"job_id":4,"job_name":"a \"q\"\t.cnf","outcome":"sat","verified":"model","winner":"hybrid","attempts":2,"queue_wait_s":0.00125,"solve_time_s":0.30000000000000004,"iterations":1234,"qa_calls":7,"qa_failures":1,"degraded":0,"strategy_uses":[3,0,2,1],"warm_start":true,"reused_clauses":5,"cost":-1,"lower_bound":-1},"model":"101"}|}
    (Protocol.encode_server
       (Protocol.Result { id = 4; record; model = Some [| true; false; true |] }));
  let records = [ record; optimisation_record ] in
  Alcotest.(check string) "telemetry document"
    {|{"schema_version":5,"summary":{"jobs":2,"sat":2,"unsat":0,"unknown":0,"workers":2,"wall_time_s":2.5,"total_solve_s":0.30000010000000005,"max_solve_s":0.30000000000000004,"mean_queue_wait_s":0.000625,"throughput_jps":0.8},"jobs":[{"job_id":4,"job_name":"a \"q\"\t.cnf","outcome":"sat","verified":"model","winner":"hybrid","attempts":2,"queue_wait_s":0.00125,"solve_time_s":0.30000000000000004,"iterations":1234,"qa_calls":7,"qa_failures":1,"degraded":0,"strategy_uses":[3,0,2,1],"warm_start":true,"reused_clauses":5,"cost":-1,"lower_bound":-1},{"job_id":5,"job_name":"w\u0001.wcnf","outcome":"sat","verified":"optimal","winner":"hybrid","attempts":2,"queue_wait_s":0.0,"solve_time_s":1e-07,"iterations":1234,"qa_calls":7,"qa_failures":1,"degraded":0,"strategy_uses":[3,0,2,1],"warm_start":false,"reused_clauses":5,"cost":3,"lower_bound":3}]}|}
    (Telemetry.to_json_string (Telemetry.summarize ~workers:2 ~wall_time_s:2.5 records) records);
  Alcotest.(check string) "drain report"
    {|{"schema_version":5,"kind":"drain_report","accepted":10,"completed":9,"cancelled_queued":1,"cancelled_running":0,"wall_s":2.71828182846}|}
    (Server.Drain.to_json_string
       {
         Server.Drain.accepted = 10;
         completed = 9;
         cancelled_queued = 1;
         cancelled_running = 0;
         wall_s = 2.71828182846;
       })

let suite =
  [
    ( "json",
      [
        Alcotest.test_case "parse: nesting cap" `Quick parse_depth_cap;
        Alcotest.test_case "non-finite floats emit null" `Quick non_finite_floats;
        Alcotest.test_case "golden wire and CLI bytes" `Quick golden_bytes;
      ] );
  ]
