(** Blocking client for the daemon's framed-JSON protocol — what
    [hyqsat submit], the smoke tests, and the serve benchmark speak.

    One socket, one {!Codec.decoder}; sends block until the frame is
    fully written, receives block until a frame decodes (or [timeout_s]
    lapses).  Not thread-safe. *)

type t

exception Protocol_error of string
(** Framing/decode failure, unexpected EOF, or receive timeout. *)

val connect_unix : string -> t

val connect_tcp : port:int -> t
(** Loopback TCP. *)

val close : t -> unit

val send : t -> Protocol.client_msg -> unit

val recv : ?timeout_s:float -> t -> Protocol.server_msg
(** Next server message.  @raise Protocol_error on EOF, a corrupt or
    unreadable frame, or after [timeout_s] (default: wait forever). *)

val handshake : ?client:string -> t -> unit
(** [Hello] / [Welcome] exchange.  @raise Protocol_error if the server
    answers anything else. *)
