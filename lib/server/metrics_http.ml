let respond ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let text = "text/plain; charset=utf-8"

let response ~metrics request =
  (* request line: METHOD SP PATH SP VERSION; tolerate bare "METHOD PATH" *)
  let line =
    match String.index_opt request '\r' with
    | Some i -> String.sub request 0 i
    | None -> ( match String.index_opt request '\n' with
      | Some i -> String.sub request 0 i
      | None -> request)
  in
  match String.split_on_char ' ' line with
  | meth :: path :: _ -> (
      let path = match String.index_opt path '?' with
        | Some i -> String.sub path 0 i
        | None -> path
      in
      match (meth, path) with
      | "GET", "/metrics" ->
          respond ~status:"200 OK" ~content_type:"text/plain; version=0.0.4; charset=utf-8"
            (metrics ())
      | "GET", "/healthz" -> respond ~status:"200 OK" ~content_type:text "ok\n"
      | "GET", _ -> respond ~status:"404 Not Found" ~content_type:text "not found\n"
      | _, ("/metrics" | "/healthz") ->
          respond ~status:"405 Method Not Allowed" ~content_type:text "method not allowed\n"
      | _ -> respond ~status:"404 Not Found" ~content_type:text "not found\n")
  | _ -> respond ~status:"400 Bad Request" ~content_type:text "bad request\n"

let max_request_bytes = 8 * 1024

(* a blank line ends the headers: "\n\n" or "\r\n\r\n", found by the
   '\n' it starts with.  A terminator that ends in the bytes from [from]
   starts at most three bytes before them *)
let complete buf ~from =
  let n = Buffer.length buf in
  let at i c = i >= 0 && i < n && Buffer.nth buf i = c in
  let rec go i =
    i < n
    && ((at i '\n' && (at (i + 1) '\n' || (at (i - 1) '\r' && at (i + 1) '\r' && at (i + 2) '\n')))
       || go (i + 1))
  in
  go (max 0 (from - 3))

let on_read ~metrics request bytes n =
  let from = Buffer.length request in
  let room = max_request_bytes - from in
  Buffer.add_subbytes request bytes 0 (min n room);
  if complete request ~from then Some (response ~metrics (Buffer.contents request))
  else if n >= room then
    Some
      (respond ~status:"431 Request Header Fields Too Large" ~content_type:text
         "request too large\n")
  else None
