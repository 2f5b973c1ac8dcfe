exception Parse_error of { line : int; reason : string }

let () =
  Printexc.register_printer (function
    | Parse_error { line; reason } -> Some (Printf.sprintf "line %d: %s" line reason)
    | _ -> None)

let max_vars = 1 lsl 20

type t = {
  s : string;
  mutable pos : int;
  mutable line : int;  (* the line [pos] is on *)
  mutable line_start : bool;  (* nothing but blanks since the last LF *)
}

let of_string s = { s; pos = 0; line = 1; line_start = true }

let fail t fmt =
  Printf.ksprintf (fun reason -> raise (Parse_error { line = t.line; reason })) fmt

let is_blank = function ' ' | '\t' | '\r' | '\012' | '\n' -> true | _ -> false

let rec more t =
  t.pos < String.length t.s
  &&
  match t.s.[t.pos] with
  | '\n' ->
      t.pos <- t.pos + 1;
      t.line <- t.line + 1;
      t.line_start <- true;
      more t
  | 'c' when t.line_start ->
      t.pos <- Option.value ~default:(String.length t.s) (String.index_from_opt t.s t.pos '\n');
      more t
  | c when is_blank c ->
      t.pos <- t.pos + 1;
      more t
  | _ -> true

let rec on_line t =
  t.pos < String.length t.s
  &&
  match t.s.[t.pos] with
  | '\n' -> false
  | c when is_blank c ->
      t.pos <- t.pos + 1;
      on_line t
  | _ -> true

let token_end t =
  let e = ref t.pos in
  while !e < String.length t.s && not (is_blank t.s.[!e]) do incr e done;
  !e

(* moves onto the next token, which the caller then consumes *)
let start t =
  if not (more t) then fail t "unexpected end of input";
  t.line_start <- false

let accept t w =
  let n = String.length w in
  let rec same i = i = n || (t.s.[t.pos + i] = w.[i] && same (i + 1)) in
  more t
  && t.pos + n <= String.length t.s
  && same 0
  && token_end t = t.pos + n
  && begin
       start t;
       t.pos <- t.pos + n;
       true
     end

let int t =
  start t;
  let s = t.s and n = String.length t.s in
  let first = if s.[t.pos] = '-' then t.pos + 1 else t.pos in
  let i = ref first and v = ref 0 in
  while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
    let d = Char.code s.[!i] - Char.code '0' in
    if !v > (max_int - d) / 10 then fail t "integer out of range";
    v := (!v * 10) + d;
    incr i
  done;
  if !i = first || (!i < n && not (is_blank s.[!i])) then
    fail t "bad integer %S" (String.sub s t.pos (min 32 (token_end t - t.pos)));
  let neg = first > t.pos in
  t.pos <- !i;
  if neg then - !v else !v

let clause t ~limit =
  let rec lits acc =
    match int t with
    | 0 -> acc
    | l ->
        if abs l > limit then fail t "literal %d exceeds %d vars" l limit;
        lits (l :: acc)
  in
  lits []

let count t what bound =
  let v = int t in
  if v < 0 || v > bound then fail t "%s %d outside [0, %d]" what v bound;
  v

let num_vars t = count t "variable count" max_vars

(* the bytes left include the count itself, a few more than after it *)
let num_clauses t = count t "clause count" ((String.length t.s - t.pos) / 2)
