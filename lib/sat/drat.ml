type step = Add of Lit.t list | Delete of Lit.t list

type t = step list

let to_string proof =
  let buf = Buffer.create 1024 in
  List.iter
    (fun step ->
      let lits, prefix =
        match step with Add l -> (l, "") | Delete l -> (l, "d ")
      in
      Buffer.add_string buf prefix;
      List.iter (fun l -> Buffer.add_string buf (string_of_int (Lit.to_dimacs l) ^ " ")) lits;
      Buffer.add_string buf "0\n")
    proof;
  Buffer.contents buf

exception Parse_error = Lexer.Parse_error

let parse_string s =
  let lx = Lexer.of_string s in
  let steps = ref [] in
  while Lexer.more lx do
    let delete = Lexer.accept lx "d" in
    let rec lits acc =
      if not (Lexer.on_line lx) then Lexer.fail lx "step not terminated by 0";
      match Lexer.int lx with
      | 0 ->
          if Lexer.on_line lx then Lexer.fail lx "tokens after the terminating 0";
          List.rev acc
      | i -> lits (Lit.of_dimacs i :: acc)
    in
    let lits = lits [] in
    steps := (if delete then Delete lits else Add lits) :: !steps
  done;
  List.rev !steps

(* ------------------------------------------------------------------ *)
(* Forward RUP checking with two watched literals                       *)

(* growable int vector: the watch lists, and the literal store and clause
   tables (sized up front, so those never grow) *)
module Ivec = struct
  type t = { mutable data : int array; mutable size : int }

  let create n = { data = Array.make (max 4 n) 0; size = 0 }

  let push v x =
    if v.size = Array.length v.data then begin
      let d = Array.make (2 * v.size) 0 in
      Array.blit v.data 0 d 0 v.size;
      v.data <- d
    end;
    Array.unsafe_set v.data v.size x;
    v.size <- v.size + 1
end

(* The clause database.  Clause [id] owns [store.(start.(id))] to
   [store.(start.(id) + len.(id) - 1)]; a clause of two or more literals
   is watched on its first two, and propagation swaps a replacement watch
   into those slots.  Units and empty clauses are never watched: the live
   units are asserted afresh before each lemma.  A deleted clause is only
   flagged dead; propagation drops it from a watch list on its next
   visit. *)
type db = {
  store : Ivec.t;
  start : Ivec.t;
  len : Ivec.t;
  dead : Ivec.t;  (* 1 once deleted *)
  watches : Ivec.t array;  (* per literal: ids of the clauses watching it *)
  value : int array;  (* per literal: 1 true, -1 false, 0 unassigned *)
  trail : int array;  (* literals made true for the lemma under check *)
  mutable trail_size : int;
  mutable units : int list;  (* ids of the live unit clauses *)
  mutable empties : int;  (* number of live empty clauses *)
  index : (int, int list) Hashtbl.t;  (* key hash -> live clause ids *)
  mark : int array;  (* per literal: stamp, to compare a clause with a key *)
  mutable stamp : int;
}

(* sized for every clause the formula and the proof's additions can
   store, so the tables are allocated once *)
let create_db ~num_vars ~clauses ~lits =
  {
    store = Ivec.create lits;
    start = Ivec.create clauses;
    len = Ivec.create clauses;
    dead = Ivec.create clauses;
    watches = Array.init (2 * num_vars) (fun _ -> Ivec.create 4);
    value = Array.make (2 * num_vars) 0;
    trail = Array.make num_vars 0;
    trail_size = 0;
    units = [];
    empties = 0;
    index = Hashtbl.create clauses;
    mark = Array.make (2 * num_vars) 0;
    stamp = 0;
  }

(* a clause's lookup key: its literals sorted, without repeats *)
let key lits =
  let a = Array.of_list lits in
  Array.sort Int.compare a;
  let n = ref 0 in
  Array.iter
    (fun l ->
      if !n = 0 || a.(!n - 1) <> l then begin
        a.(!n) <- l;
        incr n
      end)
    a;
  if !n = Array.length a then a else Array.sub a 0 !n

let hash k = Array.fold_left (fun h l -> (h * 31) + l) (Array.length k) k land max_int

let add db k =
  let id = db.start.Ivec.size in
  let n = Array.length k in
  Ivec.push db.start db.store.Ivec.size;
  Ivec.push db.len n;
  Ivec.push db.dead 0;
  Array.iter (Ivec.push db.store) k;
  let h = hash k in
  Hashtbl.replace db.index h (id :: Option.value ~default:[] (Hashtbl.find_opt db.index h));
  match n with
  | 0 -> db.empties <- db.empties + 1
  | 1 -> db.units <- id :: db.units
  | _ ->
      Ivec.push db.watches.(k.(0)) id;
      Ivec.push db.watches.(k.(1)) id

(* [k] is a key, so equal lengths and inclusion make the sets equal *)
let same_clause db id k =
  db.len.Ivec.data.(id) = Array.length k
  && begin
       db.stamp <- db.stamp + 1;
       Array.iter (fun l -> db.mark.(l) <- db.stamp) k;
       let s = db.start.Ivec.data.(id) in
       let rec all i =
         i = Array.length k || (db.mark.(db.store.Ivec.data.(s + i)) = db.stamp && all (i + 1))
       in
       all 0
     end

(* marks one live copy dead; deleting an absent clause is a no-op *)
let delete db k =
  let h = hash k in
  let ids = Option.value ~default:[] (Hashtbl.find_opt db.index h) in
  match List.find_opt (fun id -> same_clause db id k) ids with
  | None -> ()
  | Some id ->
      db.dead.Ivec.data.(id) <- 1;
      (match List.filter (( <> ) id) ids with
      | [] -> Hashtbl.remove db.index h
      | rest -> Hashtbl.replace db.index h rest);
      (match Array.length k with
      | 0 -> db.empties <- db.empties - 1
      | 1 -> db.units <- List.filter (( <> ) id) db.units
      | _ -> ())

let assign db l =
  db.value.(l) <- 1;
  db.value.(Lit.negate l) <- -1;
  db.trail.(db.trail_size) <- l;
  db.trail_size <- db.trail_size + 1

(* make [l] true; false iff it already is false *)
let assume db l =
  match db.value.(l) with
  | 0 ->
      assign db l;
      true
  | v -> v = 1

let undo db =
  for i = 0 to db.trail_size - 1 do
    let l = db.trail.(i) in
    db.value.(l) <- 0;
    db.value.(Lit.negate l) <- 0
  done;
  db.trail_size <- 0

(* unit propagation over the whole trail; true iff a conflict arises.  The
   unchecked accesses stay in range by construction: watch lists hold ids
   of stored clauses, a clause's offsets lie inside the store, literals
   index [value], and [j <= i < n] within one watch list. *)
let propagate db =
  let store = db.store.Ivec.data and start = db.start.Ivec.data in
  let len = db.len.Ivec.data and dead = db.dead.Ivec.data and value = db.value in
  let conflict = ref false and qhead = ref 0 in
  while (not !conflict) && !qhead < db.trail_size do
    let fl = Lit.negate db.trail.(!qhead) in
    incr qhead;
    let ws = db.watches.(fl) in
    let data = ws.Ivec.data and n = ws.Ivec.size in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let id = Array.unsafe_get data !i in
      incr i;
      if Array.unsafe_get dead id = 0 then begin
        let s = Array.unsafe_get start id in
        if Array.unsafe_get store s = fl then begin
          Array.unsafe_set store s (Array.unsafe_get store (s + 1));
          Array.unsafe_set store (s + 1) fl
        end;
        let first = Array.unsafe_get store s in
        if Array.unsafe_get value first = 1 then begin
          Array.unsafe_set data !j id;
          incr j
        end
        else begin
          let stop = s + Array.unsafe_get len id in
          let k = ref (s + 2) in
          while !k < stop && Array.unsafe_get value (Array.unsafe_get store !k) = -1 do
            incr k
          done;
          if !k < stop then begin
            (* a replacement watch: the clause moves to its list *)
            let l = Array.unsafe_get store !k in
            Array.unsafe_set store (s + 1) l;
            Array.unsafe_set store !k fl;
            Ivec.push db.watches.(l) id
          end
          else begin
            Array.unsafe_set data !j id;
            incr j;
            if Array.unsafe_get value first = -1 then begin
              conflict := true;
              while !i < n do
                Array.unsafe_set data !j (Array.unsafe_get data !i);
                incr i;
                incr j
              done
            end
            else assign db first
          end
        end
      end
    done;
    ws.Ivec.size <- !j
  done;
  !conflict

(* is the clause [k] RUP: do the live units and the negation of [k]
   propagate to a conflict?  The assignment is undone before returning. *)
let rup db k =
  db.empties > 0
  ||
  let store = db.store.Ivec.data and start = db.start.Ivec.data in
  let ok = ref true in
  List.iter (fun id -> if !ok then ok := assume db store.(start.(id))) db.units;
  Array.iter (fun l -> if !ok then ok := assume db (Lit.negate l)) k;
  let conflict = (not !ok) || propagate db in
  undo db;
  conflict

let check_general ?(should_stop = fun () -> false) ~require_empty f proof =
  let num_vars = Cnf.num_vars f in
  let clauses, lits =
    List.fold_left
      (fun (c, n) -> function Add l -> (c + 1, n + List.length l) | Delete _ -> (c, n))
      (Cnf.num_clauses f, Cnf.fold_clauses (fun n _ c -> n + Clause.size c) 0 f)
      proof
  in
  let db = create_db ~num_vars ~clauses ~lits in
  Cnf.iter_clauses (fun _ c -> add db (c : Clause.t :> Lit.t array)) f;
  let derived_empty = ref false in
  let out_of_range l = l < 0 || Lit.var l >= num_vars in
  let rec go i = function
    | [] ->
        if (not require_empty) || !derived_empty then Ok ()
        else Error "proof does not derive the empty clause"
    | step :: rest -> (
        let lits = match step with Add l | Delete l -> l in
        match List.find_opt out_of_range lits with
        | Some l ->
            Error
              (Printf.sprintf "step %d: variable %d out of range (the formula has %d)" i
                 (Lit.var l + 1) num_vars)
        | None -> (
            match step with
            | Delete _ ->
                delete db (key lits);
                go (i + 1) rest
            | Add _ ->
                if should_stop () then Error (Printf.sprintf "step %d: check stopped" i)
                else
                  let k = key lits in
                  if rup db k then begin
                    if Array.length k = 0 then derived_empty := true;
                    add db k;
                    go (i + 1) rest
                  end
                  else Error (Printf.sprintf "step %d: clause is not RUP" i)))
  in
  go 0 proof

let check ?should_stop f proof = check_general ?should_stop ~require_empty:true f proof
let check_steps ?should_stop f proof = check_general ?should_stop ~require_empty:false f proof
