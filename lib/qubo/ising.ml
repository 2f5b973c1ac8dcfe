type t = {
  num_spins : int;
  h : float array;
  j : ((int * int) * float) list;
  offset : float;
  spin_of_var : (int, int) Hashtbl.t;
  var_of_spin : int array;
}

let of_qubo q =
  let vars = Pbq.vars q in
  let n = List.length vars in
  let spin_of_var = Hashtbl.create n in
  let var_of_spin = Array.make (max n 1) 0 in
  List.iteri
    (fun i v ->
      Hashtbl.replace spin_of_var v i;
      var_of_spin.(i) <- v)
    vars;
  let h = Array.make (max n 1) 0. in
  let offset = ref (Pbq.const q) in
  (* x = (1+s)/2:  B·x = B/2 + (B/2)·s ;  J·x·y = J/4 + (J/4)(s_x+s_y) + (J/4)s_x s_y *)
  Pbq.iter_linear q (fun v b ->
      let i = Hashtbl.find spin_of_var v in
      h.(i) <- h.(i) +. (b /. 2.);
      offset := !offset +. (b /. 2.));
  let j = ref [] in
  Pbq.iter_quad q (fun v w c ->
      let i = Hashtbl.find spin_of_var v and k = Hashtbl.find spin_of_var w in
      let i, k = if i < k then (i, k) else (k, i) in
      h.(i) <- h.(i) +. (c /. 4.);
      h.(k) <- h.(k) +. (c /. 4.);
      offset := !offset +. (c /. 4.);
      j := ((i, k), c /. 4.) :: !j);
  { num_spins = n; h; j = !j; offset = !offset; spin_of_var; var_of_spin }

let energy t spins =
  let e = ref t.offset in
  Array.iteri (fun i hi -> e := !e +. (hi *. float_of_int spins.(i))) (Array.sub t.h 0 t.num_spins);
  List.iter
    (fun ((i, k), c) -> e := !e +. (c *. float_of_int (spins.(i) * spins.(k))))
    t.j;
  !e

let spins_of_bools t bools =
  Array.init t.num_spins (fun i -> if bools.(t.var_of_spin.(i)) then 1 else -1)
