type wire = int

type gate =
  | Input
  | Const of bool
  | And of wire * wire
  | Or of wire * wire
  | Xor of wire * wire
  | Nand of wire * wire

type t = {
  mutable gates : gate list; (* reversed: wire n-1 first *)
  mutable n : int;
  mutable assertions : Sat.Clause.t list;
}

let create () = { gates = []; n = 0; assertions = [] }

let add t g =
  let w = t.n in
  t.gates <- g :: t.gates;
  t.n <- t.n + 1;
  w

let fresh_input t = add t Input
let const_true t = add t (Const true)
let const_false t = add t (Const false)
let and_ t a b = add t (And (a, b))
let or_ t a b = add t (Or (a, b))
let xor_ t a b = add t (Xor (a, b))
let nand_ t a b = add t (Nand (a, b))

let assert_clause t lits = t.assertions <- Sat.Clause.make lits :: t.assertions
let assert_true t w = assert_clause t [ Sat.Lit.pos w ]
let assert_false t w = assert_clause t [ Sat.Lit.neg_of w ]

let assert_any t ws = assert_clause t (List.map Sat.Lit.pos ws)

let full_adder t a b cin =
  let axb = xor_ t a b in
  let sum = xor_ t axb cin in
  let carry = or_ t (and_ t a b) (and_ t axb cin) in
  (sum, carry)

let ripple_adder t xs ys =
  if List.length xs <> List.length ys then invalid_arg "Circuit.ripple_adder: widths";
  let carry = ref (const_false t) in
  let sums =
    List.map2
      (fun x y ->
        let s, c = full_adder t x y !carry in
        carry := c;
        s)
      xs ys
  in
  sums @ [ !carry ]

let multiplier t xs ys =
  let wx = List.length xs and wy = List.length ys in
  if wx = 0 || wy = 0 then invalid_arg "Circuit.multiplier: empty operand";
  let width = wx + wy in
  let zero = const_false t in
  let pad bits = bits @ List.init (width - List.length bits) (fun _ -> zero) in
  (* sum over shifted partial products, all padded to full width *)
  let acc = ref (pad []) in
  List.iteri
    (fun i y ->
      let partial = pad (List.init i (fun _ -> zero) @ List.map (fun x -> and_ t x y) xs) in
      let summed = ripple_adder t !acc partial in
      (* drop the final carry: it is provably 0 within width wx+wy *)
      acc := List.filteri (fun k _ -> k < width) summed)
    ys;
  !acc

let to_cnf t =
  let gates = Array.of_list (List.rev t.gates) in
  let clauses = ref t.assertions in
  let emit lits = clauses := Sat.Clause.make lits :: !clauses in
  let p w = Sat.Lit.pos w and n w = Sat.Lit.neg_of w in
  Array.iteri
    (fun z g ->
      match g with
      | Input -> ()
      | Const true -> emit [ p z ]
      | Const false -> emit [ n z ]
      | And (a, b) ->
          emit [ n z; p a ];
          emit [ n z; p b ];
          emit [ p z; n a; n b ]
      | Or (a, b) ->
          emit [ p z; n a ];
          emit [ p z; n b ];
          emit [ n z; p a; p b ]
      | Nand (a, b) ->
          emit [ p z; p a ];
          emit [ p z; p b ];
          emit [ n z; n a; n b ]
      | Xor (a, b) ->
          emit [ n z; p a; p b ];
          emit [ n z; n a; n b ];
          emit [ p z; n a; p b ];
          emit [ p z; p a; n b ])
    gates;
  Sat.Cnf.make ~num_vars:t.n (List.rev !clauses)

let eval t ~inputs =
  let gates = Array.of_list (List.rev t.gates) in
  let values = Array.make t.n None in
  List.iter (fun (w, v) -> values.(w) <- Some v) inputs;
  let rec value w =
    match values.(w) with
    | Some v -> v
    | None ->
        let v =
          match gates.(w) with
          | Input -> raise Not_found
          | Const b -> b
          | And (a, b) -> value a && value b
          | Or (a, b) -> value a || value b
          | Nand (a, b) -> not (value a && value b)
          | Xor (a, b) -> value a <> value b
        in
        values.(w) <- Some v;
        v
  in
  value
