module J = Json
module T = Service.Telemetry

let proto_version = 1
let server_name = "hyqsat-serve/1"

type job_spec = {
  id : int;
  name : string;
  dimacs : string;
  format : string option;
  gap_limit : int;
  certify : bool;
  timeout_s : float option;
  max_iterations : int;
  retries : int;
  seed : int option;
  priority : int;
  session : string option;
}

let make_job_spec ?name ?format ?(gap_limit = 0) ?(certify = false) ?timeout_s
    ?(max_iterations = max_int) ?(retries = 0) ?seed ?(priority = 0) ?session ~id dimacs =
  {
    id;
    name = (match name with Some n -> n | None -> Printf.sprintf "job-%d" id);
    dimacs;
    format;
    gap_limit;
    certify;
    timeout_s;
    max_iterations;
    retries;
    seed;
    priority;
    session;
  }

type client_msg =
  | Hello of { client : string; proto : int }
  | Submit of job_spec
  | Subscribe of { events : bool }
  | Ping of int
  | Bye

type server_msg =
  | Welcome of { server : string; proto : int; schema : int }
  | Accepted of { id : int; position : int; queued : int }
  | Rejected of { id : int; code : string; reason : string; retry_after_s : float option }
  | Result of { id : int; record : T.record; model : bool array option }
  | Event of { job : int option; name : string; dur_s : float; attrs : (string * string) list }
  | Pong of int
  | Drained of { accepted : int; completed : int; cancelled : int }
  | Error_msg of { code : string; reason : string }

(* ------------------------------------------------------------------ *)
(* encoding.  Field order is fixed: schema_version, kind, then the
   kind's own fields — stable bytes make frames diffable in tests. *)

let obj kind fields =
  J.Obj (("schema_version", J.Int T.schema_version) :: ("kind", J.Str kind) :: fields)

(* models travel as a '0'/'1' string: compact, order-preserving, and
   trivially stable across schema versions *)
let string_of_model m =
  String.init (Array.length m) (fun i -> if m.(i) then '1' else '0')

let model_of_string s = Array.init (String.length s) (fun i -> s.[i] = '1')

let opt_num name = function None -> [] | Some x -> [ (name, J.Num x) ]
let opt_int name = function None -> [] | Some i -> [ (name, J.Int i) ]
let opt_str name = function None -> [] | Some s -> [ (name, J.Str s) ]

let encode_client msg =
  J.to_string
    (match msg with
    | Hello { client; proto } ->
        obj "hello" [ ("client", J.Str client); ("proto", J.Int proto) ]
    | Submit s ->
        obj "submit"
          ([
             ("id", J.Int s.id);
             ("name", J.Str s.name);
             ("dimacs", J.Str s.dimacs);
             ("certify", J.Bool s.certify);
           ]
          @ opt_num "timeout_s" s.timeout_s
          @ [ ("max_iterations", J.Int s.max_iterations); ("retries", J.Int s.retries) ]
          @ opt_int "seed" s.seed
          @ [ ("priority", J.Int s.priority) ]
          @ opt_str "session" s.session
          @ opt_str "format" s.format
          (* only optimisation submits carry a gap: absence = 0 on read
             keeps decision submits byte-identical to older clients' *)
          @ (if s.gap_limit = 0 then [] else [ ("gap_limit", J.Int s.gap_limit) ]))
    | Subscribe { events } -> obj "subscribe" [ ("events", J.Bool events) ]
    | Ping n -> obj "ping" [ ("n", J.Int n) ]
    | Bye -> obj "bye" [])

let encode_server msg =
  J.to_string
    (match msg with
    | Welcome { server; proto; schema } ->
        obj "welcome"
          [ ("server", J.Str server); ("proto", J.Int proto); ("schema", J.Int schema) ]
    | Accepted { id; position; queued } ->
        obj "accepted"
          [ ("id", J.Int id); ("position", J.Int position); ("queued", J.Int queued) ]
    | Rejected { id; code; reason; retry_after_s } ->
        obj "rejected"
          ([ ("id", J.Int id); ("code", J.Str code); ("reason", J.Str reason) ]
          @ opt_num "retry_after_s" retry_after_s)
    | Result { id; record; model } ->
        obj "result"
          ([ ("id", J.Int id); ("record", T.json_of_record record) ]
          @ match model with None -> [] | Some m -> [ ("model", J.Str (string_of_model m)) ])
    | Event { job; name; dur_s; attrs } ->
        obj "event"
          (opt_int "job" job
          @ [
              ("name", J.Str name);
              ("dur_s", J.Num dur_s);
              ("attrs", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) attrs));
            ])
    | Pong n -> obj "pong" [ ("n", J.Int n) ]
    | Drained { accepted; completed; cancelled } ->
        obj "drained"
          [
            ("accepted", J.Int accepted);
            ("completed", J.Int completed);
            ("cancelled", J.Int cancelled);
          ]
    | Error_msg { code; reason } ->
        obj "error" [ ("code", J.Str code); ("reason", J.Str reason) ])

(* ------------------------------------------------------------------ *)
(* decoding *)

let kind_of kvs = J.as_str (J.field kvs "kind")
let bool_field kvs k = J.as_bool (J.field kvs k)

let with_doc s f =
  J.decode s (fun j ->
      let kvs = J.as_obj j in
      T.check_schema_version kvs;
      f kvs)

let decode_client s =
  with_doc s (fun kvs ->
      match kind_of kvs with
      | "hello" ->
          Hello { client = J.as_str (J.field kvs "client"); proto = J.as_int (J.field kvs "proto") }
      | "submit" ->
          Submit
            {
              id = J.as_int (J.field kvs "id");
              name = J.as_str (J.field kvs "name");
              dimacs = J.as_str (J.field kvs "dimacs");
              certify = bool_field kvs "certify";
              timeout_s = J.opt_field kvs "timeout_s" J.as_num;
              max_iterations = J.as_int (J.field kvs "max_iterations");
              retries = J.as_int (J.field kvs "retries");
              seed = J.opt_field kvs "seed" J.as_int;
              (* added after v1 of the vocabulary: old submitters omit it *)
              priority = Option.value ~default:0 (J.opt_field kvs "priority" J.as_int);
              (* added with telemetry schema v4: absent = one-shot submit *)
              session = J.opt_field kvs "session" J.as_str;
              (* added with telemetry schema v5: absent = DIMACS decision job *)
              format = J.opt_field kvs "format" J.as_str;
              gap_limit = Option.value ~default:0 (J.opt_field kvs "gap_limit" J.as_int);
            }
      | "subscribe" -> Subscribe { events = bool_field kvs "events" }
      | "ping" -> Ping (J.as_int (J.field kvs "n"))
      | "bye" -> Bye
      | k -> raise (J.Schema_error (Printf.sprintf "unknown client message kind %S" k)))

let decode_server s =
  with_doc s (fun kvs ->
      match kind_of kvs with
      | "welcome" ->
          Welcome
            {
              server = J.as_str (J.field kvs "server");
              proto = J.as_int (J.field kvs "proto");
              schema = J.as_int (J.field kvs "schema");
            }
      | "accepted" ->
          Accepted
            {
              id = J.as_int (J.field kvs "id");
              position = J.as_int (J.field kvs "position");
              queued = J.as_int (J.field kvs "queued");
            }
      | "rejected" ->
          Rejected
            {
              id = J.as_int (J.field kvs "id");
              code = J.as_str (J.field kvs "code");
              reason = J.as_str (J.field kvs "reason");
              retry_after_s = J.opt_field kvs "retry_after_s" J.as_num;
            }
      | "result" ->
          Result
            {
              id = J.as_int (J.field kvs "id");
              record = T.record_of_json (J.field kvs "record");
              model = J.opt_field kvs "model" (fun v -> model_of_string (J.as_str v));
            }
      | "event" ->
          Event
            {
              job = J.opt_field kvs "job" J.as_int;
              name = J.as_str (J.field kvs "name");
              dur_s = J.as_num (J.field kvs "dur_s");
              attrs =
                List.map (fun (k, v) -> (k, J.as_str v)) (J.as_obj (J.field kvs "attrs"));
            }
      | "pong" -> Pong (J.as_int (J.field kvs "n"))
      | "drained" ->
          Drained
            {
              accepted = J.as_int (J.field kvs "accepted");
              completed = J.as_int (J.field kvs "completed");
              cancelled = J.as_int (J.field kvs "cancelled");
            }
      | "error" ->
          Error_msg { code = J.as_str (J.field kvs "code"); reason = J.as_str (J.field kvs "reason") }
      | k -> raise (J.Schema_error (Printf.sprintf "unknown server message kind %S" k)))
