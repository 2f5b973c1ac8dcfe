(** Length-prefixed wire framing.

    A frame is an 8-byte header — the 4 magic bytes {!magic} followed by
    the payload length as a big-endian unsigned 32-bit integer — and then
    the payload (UTF-8 JSON at the protocol layer; the codec is
    payload-agnostic).  The {!decoder} is an incremental push parser: feed
    it whatever byte slices the socket produced, ask for the next complete
    frame, repeat — partial headers and split payloads are just "not yet".
    The {!writer} is the output side of a connection: it queues bytes as
    given (a {!frame}, or a raw reply such as an HTTP response) and drains
    them in as many partial writes as the socket takes.

    Both directions enforce a hard maximum payload size: an incoming
    length field beyond the limit poisons the decoder (the stream cannot
    be resynchronised after a bad header), and junk input fails fast on
    the magic check rather than being interpreted as a gigantic length. *)

val magic : string
(** ["HQF1"] — protocol family and framing version. *)

val default_max_frame : int
(** 4 MiB. *)

(** Why a byte stream stopped being a frame stream.  Both are fatal for
    the connection: after a corrupt header there is no way to find the
    next frame boundary. *)
type error =
  | Bad_magic of string  (** the four header bytes actually seen *)
  | Oversized of { size : int; limit : int }
      (** declared payload length exceeds the configured maximum *)

val error_label : error -> string
(** Stable one-token labels: ["bad_magic"], ["oversized"]. *)

(** {2 Decoding} *)

type decoder

val decoder : ?max_frame:int -> unit -> decoder
(** Fresh decoder enforcing [max_frame] (default {!default_max_frame})
    on declared payload lengths. *)

val feed : decoder -> ?off:int -> ?len:int -> Bytes.t -> unit
(** Append [len] bytes of [b] starting at [off] (defaults: the whole
    buffer) to the decoder's input. *)

val feed_string : decoder -> string -> unit

val next : decoder -> (string option, error) result
(** [Ok (Some payload)] — one complete frame, removed from the input;
    [Ok None] — the input holds no complete frame yet; [Error _] — the
    stream is corrupt.  Errors are sticky: every later call returns the
    same error. *)

val buffered : decoder -> int
(** Bytes fed but not yet returned as frames. *)

(** {2 Encoding} *)

val frame : string -> string
(** A payload's wire form: header + payload.
    @raise Invalid_argument if the payload exceeds {!default_max_frame}. *)

type writer

val writer : unit -> writer

val push : writer -> string -> unit
(** Queue bytes as given, after everything queued before; frame a
    payload with {!frame} first. *)

val pending : writer -> int
(** Bytes queued and not yet consumed by {!advance}. *)

val to_write : writer -> ?max:int -> unit -> string
(** The next chunk to hand to [write] (at most [max] bytes, default all
    pending).  Does not consume — call {!advance} with however many bytes
    the socket actually took. *)

val advance : writer -> int -> unit
(** Mark [n] bytes as written.  @raise Invalid_argument if [n] exceeds
    {!pending}. *)
