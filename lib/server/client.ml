module P = Protocol

exception Protocol_error of string

type t = { fd : Unix.file_descr; dec : Codec.decoder }

let connect fd addr =
  Unix.connect fd addr;
  { fd; dec = Codec.decoder () }

let connect_unix path = connect (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0) (Unix.ADDR_UNIX path)

let connect_tcp ~port =
  connect
    (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0)
    (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send t msg = write_all t.fd (Codec.frame (P.encode_client msg))

let recv ?timeout_s t =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s in
  let buf = Bytes.create 65536 in
  let rec next () =
    match Codec.next t.dec with
    | Error e -> raise (Protocol_error ("framing: " ^ Codec.error_label e))
    | Ok (Some payload) -> (
        match P.decode_server payload with
        | Ok msg -> msg
        | Error reason -> raise (Protocol_error reason))
    | Ok None ->
        (match deadline with
        | Some d ->
            let left = d -. Unix.gettimeofday () in
            if left <= 0. then raise (Protocol_error "receive timeout");
            (match Unix.select [ t.fd ] [] [] left with
            | [], _, _ -> raise (Protocol_error "receive timeout")
            | _ -> ())
        | None -> ());
        (match Unix.read t.fd buf 0 (Bytes.length buf) with
        | 0 -> raise (Protocol_error "connection closed by server")
        | n -> Codec.feed t.dec ~len:n buf
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        next ()
  in
  next ()

let handshake ?(client = "hyqsat-client") t =
  send t (P.Hello { client; proto = P.proto_version });
  match recv t with
  | P.Welcome _ -> ()
  | P.Error_msg { code; reason } ->
      raise (Protocol_error (Printf.sprintf "handshake rejected (%s): %s" code reason))
  | _ -> raise (Protocol_error "handshake: unexpected reply")
