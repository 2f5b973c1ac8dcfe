exception Parse_error = Lexer.Parse_error

let parse_string s =
  let lx = Lexer.of_string s in
  if not (Lexer.accept lx "p" && Lexer.accept lx "cnf") then
    Lexer.fail lx "missing \"p cnf\" header";
  let num_vars = Lexer.num_vars lx in
  let num_clauses = Lexer.num_clauses lx in
  let clauses = ref [] and found = ref 0 in
  while Lexer.more lx && not (Lexer.accept lx "%") do
    clauses := Clause.of_dimacs (Lexer.clause lx ~limit:num_vars) :: !clauses;
    incr found
  done;
  if !found <> num_clauses then
    Lexer.fail lx "header declares %d clauses, found %d" num_clauses !found;
  Cnf.make ~num_vars (List.rev !clauses)

let parse_file path = parse_string (In_channel.with_open_bin path In_channel.input_all)

let to_string ?(comments = []) f =
  let buf = Buffer.create 1024 in
  List.iter (fun c -> Buffer.add_string buf ("c " ^ c ^ "\n")) comments;
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" (Cnf.num_vars f) (Cnf.num_clauses f));
  List.iter
    (fun c ->
      List.iter
        (fun l -> Buffer.add_string buf (string_of_int (Lit.to_dimacs l) ^ " "))
        (Clause.lits c);
      Buffer.add_string buf "0\n")
    (Cnf.clauses f);
  Buffer.contents buf

let write_file ?comments path f =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string ?comments f))
