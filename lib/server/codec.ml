let magic = "HQF1"
let header_bytes = 8
let default_max_frame = 4 * 1024 * 1024

type error = Bad_magic of string | Oversized of { size : int; limit : int }

let error_label = function Bad_magic _ -> "bad_magic" | Oversized _ -> "oversized"

(* ------------------------------------------------------------------ *)
(* decoder: a growable byte accumulator with a read cursor.  Consumed
   bytes are compacted away lazily, once the cursor has moved past more
   bytes than it leaves behind, so feeding and extracting are amortised
   O(bytes). *)

type decoder = {
  max_frame : int;
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable stop : int;  (* one past the last byte fed *)
  mutable poisoned : error option;
}

let decoder ?(max_frame = default_max_frame) () =
  { max_frame; buf = Bytes.create 4096; start = 0; stop = 0; poisoned = None }

let buffered d = d.stop - d.start

let ensure_room d extra =
  let used = buffered d in
  if d.stop + extra > Bytes.length d.buf then begin
    (* compact first; grow only if compaction is not enough *)
    if d.start > 0 then begin
      Bytes.blit d.buf d.start d.buf 0 used;
      d.start <- 0;
      d.stop <- used
    end;
    if d.stop + extra > Bytes.length d.buf then begin
      let cap = ref (max 4096 (Bytes.length d.buf)) in
      while used + extra > !cap do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit d.buf 0 bigger 0 used;
      d.buf <- bigger
    end
  end

let feed d ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if len < 0 || off < 0 || off + len > Bytes.length b then
    invalid_arg "Codec.feed: bad slice";
  ensure_room d len;
  Bytes.blit b off d.buf d.stop len;
  d.stop <- d.stop + len

let feed_string d s = feed d (Bytes.unsafe_of_string s)

let be32_at buf i =
  (Char.code (Bytes.get buf i) lsl 24)
  lor (Char.code (Bytes.get buf (i + 1)) lsl 16)
  lor (Char.code (Bytes.get buf (i + 2)) lsl 8)
  lor Char.code (Bytes.get buf (i + 3))

let next d =
  match d.poisoned with
  | Some e -> Error e
  | None ->
      if buffered d < header_bytes then Ok None
      else begin
        let seen = Bytes.sub_string d.buf d.start 4 in
        if seen <> magic then begin
          let e = Bad_magic seen in
          d.poisoned <- Some e;
          Error e
        end
        else
          let size = be32_at d.buf (d.start + 4) in
          if size > d.max_frame then begin
            let e = Oversized { size; limit = d.max_frame } in
            d.poisoned <- Some e;
            Error e
          end
          else if buffered d < header_bytes + size then Ok None
          else begin
            let payload = Bytes.sub_string d.buf (d.start + header_bytes) size in
            d.start <- d.start + header_bytes + size;
            if d.start = d.stop then begin
              d.start <- 0;
              d.stop <- 0
            end;
            Ok (Some payload)
          end
      end

(* ------------------------------------------------------------------ *)
(* encoding *)

let frame payload =
  let n = String.length payload in
  if n > default_max_frame then
    invalid_arg (Printf.sprintf "Codec.frame: payload of %d bytes exceeds the frame limit" n);
  let b = Bytes.create (header_bytes + n) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 5 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 6 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 7 (Char.chr (n land 0xFF));
  Bytes.blit_string payload 0 b header_bytes n;
  Bytes.unsafe_to_string b

(* writer: queued bytes flattened into one pending buffer with an
   offset; short writes only move the offset *)

type writer = { out : Buffer.t; mutable off : int }

let writer () = { out = Buffer.create 1024; off = 0 }
let pending w = Buffer.length w.out - w.off

let push w bytes = Buffer.add_string w.out bytes

let to_write w ?max () =
  let avail = pending w in
  let n = match max with Some m -> min m avail | None -> avail in
  Buffer.sub w.out w.off n

let advance w n =
  if n < 0 || n > pending w then invalid_arg "Codec.advance: beyond pending";
  w.off <- w.off + n;
  if w.off = Buffer.length w.out then begin
    Buffer.clear w.out;
    w.off <- 0
  end
