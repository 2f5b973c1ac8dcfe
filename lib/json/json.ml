type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* emitting *)

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* %.17g round-trips any float exactly; trim to %g when that already does *)
let float_repr x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else
    let short = Printf.sprintf "%.12g" x in
    if float_of_string short = x then short else Printf.sprintf "%.17g" x

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num x -> Buffer.add_string buf (if Float.is_finite x then float_repr x else "null")
  | Str s -> add_quoted buf s
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_quoted buf k;
          Buffer.add_char buf ':';
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  emit buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* parsing *)

let max_depth = 64

type error = Syntax of string | Too_deep of int

let error_message = function
  | Syntax msg -> msg
  | Too_deep d -> Printf.sprintf "nesting deeper than %d levels" d

exception Fail of error

let parse (s : string) : (t, error) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (Syntax (Printf.sprintf "%s at offset %d" msg !pos))) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | 'u' ->
              (* a BMP code point, the only kind the emitter writes; a
                 lone surrogate decodes to U+FFFD *)
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let c =
                try int_of_string ("0x" ^ String.sub s !pos 4) with _ -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              Buffer.add_utf_8_uchar buf (if Uchar.is_valid c then Uchar.of_int c else Uchar.rep)
          | c ->
              Buffer.add_char buf
                (match c with
                | '"' | '\\' | '/' -> c
                | 'b' -> '\b'
                | 'f' -> '\012'
                | 'n' -> '\n'
                | 'r' -> '\r'
                | 't' -> '\t'
                | c -> fail (Printf.sprintf "bad escape %C" c));
              advance ());
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    let span = String.sub s start (!pos - start) in
    match int_of_string_opt span with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt span with
        | Some x -> Num x
        | None -> fail (Printf.sprintf "bad number %S" span))
  in
  (* the items of an array or object, from its opening bracket on *)
  let items close item =
    advance ();
    skip_ws ();
    if peek () = Some close then (advance (); [])
    else
      let rec more acc =
        let x = item () in
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); more (x :: acc)
        | Some c when c = close -> advance (); List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or %C" close)
      in
      more []
  in
  (* [depth] counts the containers open around the value being parsed;
     the cap is checked before recursing, so the stack never grows past it *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some ('{' | '[') when depth = max_depth -> raise (Fail (Too_deep max_depth))
    | Some '{' ->
        let member () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          (k, parse_value (depth + 1))
        in
        Obj (items '}' member)
    | Some '[' -> Arr (items ']' (fun () -> parse_value (depth + 1)))
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail e -> Error e

(* ------------------------------------------------------------------ *)
(* reading documents *)

exception Schema_error of string

let decode s read =
  match parse s with
  | Error e -> Error (error_message e)
  | Ok j -> ( try Ok (read j) with Schema_error msg -> Error msg)

let field kvs k =
  match List.assoc_opt k kvs with
  | Some v -> v
  | None -> raise (Schema_error (Printf.sprintf "missing field %S" k))

let opt_field kvs k read = Option.map read (List.assoc_opt k kvs)

let as_bool = function Bool b -> b | _ -> raise (Schema_error "expected boolean")

let as_num = function
  | Num x -> x
  | Int i -> float_of_int i
  | Null -> Float.nan
  | _ -> raise (Schema_error "expected number")

let as_int = function
  | Int i -> i
  | Num x when Float.is_integer x -> int_of_float x
  | _ -> raise (Schema_error "expected integer")

let as_str = function Str s -> s | _ -> raise (Schema_error "expected string")
let as_obj = function Obj kvs -> kvs | _ -> raise (Schema_error "expected object")
let as_arr = function Arr xs -> xs | _ -> raise (Schema_error "expected array")
