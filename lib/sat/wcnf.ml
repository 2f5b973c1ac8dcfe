type soft = { weight : int; clause : Clause.t }
type t = { num_vars : int; hard : Clause.t array; soft : soft array }

let check_clause num_vars c =
  Array.iter
    (fun l ->
      if Lit.var l >= num_vars || Lit.var l < 0 then
        invalid_arg
          (Printf.sprintf "Wcnf.make: literal %s out of range (num_vars=%d)"
             (Lit.to_string l) num_vars))
    (Clause.to_array c)

let make ~num_vars ~hard ~soft =
  List.iter (check_clause num_vars) hard;
  List.iter
    (fun (w, c) ->
      if w < 1 then invalid_arg (Printf.sprintf "Wcnf.make: soft weight %d < 1" w);
      check_clause num_vars c)
    soft;
  (* [top] is [sum + 1] and classification/penalised costs compare against
     it, so the summed weight must stay a valid native int: overflow here
     would silently flip hard/soft classification on classic round-trips *)
  ignore
    (List.fold_left
       (fun acc (w, _) ->
         if w > max_int - 1 - acc then
           invalid_arg "Wcnf.make: summed soft weight overflows max_int"
         else acc + w)
       0 soft);
  {
    num_vars;
    hard = Array.of_list hard;
    soft = Array.of_list (List.map (fun (weight, clause) -> { weight; clause }) soft);
  }

let of_cnf f =
  make ~num_vars:(Cnf.num_vars f) ~hard:[] ~soft:(List.map (fun c -> (1, c)) (Cnf.clauses f))

let num_vars f = f.num_vars
let num_hard f = Array.length f.hard
let num_soft f = Array.length f.soft
let sum_weights f = Array.fold_left (fun acc s -> acc + s.weight) 0 f.soft
let top f = sum_weights f + 1
let hard_cnf f = Cnf.of_arrays ~num_vars:f.num_vars (Array.copy f.hard)
let soft_clauses f = Array.to_list f.soft |> List.map (fun s -> (s.weight, s.clause))

let cost f model =
  Array.fold_left
    (fun acc s -> if Assignment.satisfies_clause model s.clause then acc else acc + s.weight)
    0 f.soft

let hard_satisfied f model = Array.for_all (Assignment.satisfies_clause model) f.hard

(* ---- WDIMACS parsing ---- *)

exception Parse_error = Lexer.Parse_error

(* The header must sit on one line: that is how a 3-field [p wcnf nv nc]
   header is told from a 4-field one followed by a clause weight. *)
let read_header lx =
  let field read = if Lexer.on_line lx then read lx else Lexer.fail lx "malformed wcnf header" in
  if not (field (fun lx -> Lexer.accept lx "wcnf")) then Lexer.fail lx "expected \"p wcnf\"";
  let num_vars = field Lexer.num_vars in
  let num_clauses = field Lexer.num_clauses in
  let top = if Lexer.on_line lx then Some (Lexer.int lx) else None in
  if Lexer.on_line lx then Lexer.fail lx "malformed wcnf header";
  (num_vars, num_clauses, top)

let parse_string s =
  let lx = Lexer.of_string s in
  (* without a header (the 2022 dialect: [h]-prefixed hard clauses,
     weight-prefixed soft clauses) the variable count is the largest
     literal, capped like a declared one *)
  let header = if Lexer.accept lx "p" then Some (read_header lx) else None in
  let limit = match header with Some (nv, _, _) -> nv | None -> Lexer.max_vars in
  let is_hard w = match header with Some (_, _, Some top) -> w >= top | _ -> false in
  let hard = ref [] and soft = ref [] and found = ref 0 and max_var = ref 0 in
  while Lexer.more lx && not (Lexer.accept lx "%") do
    let weight =
      if Lexer.accept lx "h" || Lexer.accept lx "H" then None
      else
        let w = Lexer.int lx in
        if w < 0 then Lexer.fail lx "negative clause weight %d" w;
        Some w
    in
    let lits = Lexer.clause lx ~limit in
    List.iter (fun l -> max_var := max !max_var (abs l)) lits;
    let c = Clause.of_dimacs lits in
    incr found;
    match weight with
    | Some w when not (is_hard w) ->
        if w = 0 then Lexer.fail lx "soft clause with weight 0";
        soft := (w, c) :: !soft
    | _ -> hard := c :: !hard
  done;
  let num_vars =
    match header with
    | Some (num_vars, num_clauses, _) ->
        if !found <> num_clauses then
          Lexer.fail lx "header declares %d clauses, found %d" num_clauses !found;
        num_vars
    | None ->
        if !found = 0 then Lexer.fail lx "empty WDIMACS document";
        !max_var
  in
  (* weight-overflow (and any other) constructor rejection surfaces as a
     parse error, keeping the parser's error contract uniform *)
  try make ~num_vars ~hard:(List.rev !hard) ~soft:(List.rev !soft)
  with Invalid_argument msg -> Lexer.fail lx "%s" msg

let parse_file path = parse_string (In_channel.with_open_bin path In_channel.input_all)

let clause_body buf c =
  List.iter (fun l -> Buffer.add_string buf (string_of_int (Lit.to_dimacs l)); Buffer.add_char buf ' ') (Clause.lits c);
  Buffer.add_string buf "0\n"

let to_string ?(format = `Classic) ?(comments = []) f =
  let buf = Buffer.create 1024 in
  List.iter (fun c -> Buffer.add_string buf ("c " ^ c ^ "\n")) comments;
  (match format with
  | `Classic ->
      let t = top f in
      Buffer.add_string buf
        (Printf.sprintf "p wcnf %d %d %d\n" f.num_vars (num_hard f + num_soft f) t);
      Array.iter
        (fun c ->
          Buffer.add_string buf (string_of_int t);
          Buffer.add_char buf ' ';
          clause_body buf c)
        f.hard;
      Array.iter
        (fun s ->
          Buffer.add_string buf (string_of_int s.weight);
          Buffer.add_char buf ' ';
          clause_body buf s.clause)
        f.soft
  | `Std2022 ->
      Array.iter
        (fun c ->
          Buffer.add_string buf "h ";
          clause_body buf c)
        f.hard;
      Array.iter
        (fun s ->
          Buffer.add_string buf (string_of_int s.weight);
          Buffer.add_char buf ' ';
          clause_body buf s.clause)
        f.soft);
  Buffer.contents buf

let write_file ?format ?comments path f =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string ?format ?comments f))

