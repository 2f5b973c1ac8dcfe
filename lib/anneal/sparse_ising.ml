type t = {
  n : int;
  h : float array;
  off : int array;
  nbr : int array;
  cpl : float array;
  offset : float;
}

let of_qubo q ~n ~spin =
  let h = Array.make n 0. in
  let offset = ref (Qubo.Pbq.const q) in
  (* x = (1+s)/2:  B·x = B/2 + (B/2)·s ;  J·x·y = J/4 + (J/4)(s_x+s_y) + (J/4)s_x s_y *)
  Qubo.Pbq.iter_linear q (fun v b ->
      let i = spin v in
      h.(i) <- h.(i) +. (b /. 2.);
      offset := !offset +. (b /. 2.));
  let j = ref [] in
  Qubo.Pbq.iter_quad q (fun v w c ->
      let i = spin v and k = spin w in
      let i, k = if i < k then (i, k) else (k, i) in
      h.(i) <- h.(i) +. (c /. 4.);
      h.(k) <- h.(k) +. (c /. 4.);
      offset := !offset +. (c /. 4.);
      j := ((i, k), c /. 4.) :: !j);
  (h, !j, !offset)

let build ~n ~h ~couplings ~offset =
  if Array.length h <> n then invalid_arg "Sparse_ising.build: h length";
  (* accumulate duplicates; an int key [i * n + j] (i < j) avoids the tuple
     boxing a pair key would allocate per lookup on this hot construction
     path (one build per annealer call) *)
  let tbl = Hashtbl.create (List.length couplings) in
  List.iter
    (fun ((i, j), c) ->
      if i = j || i < 0 || j < 0 || i >= n || j >= n then
        invalid_arg "Sparse_ising.build: bad coupling";
      let key = if i < j then (i * n) + j else (j * n) + i in
      Hashtbl.replace tbl key (c +. Option.value ~default:0. (Hashtbl.find_opt tbl key)))
    couplings;
  let deg = Array.make n 0 in
  Hashtbl.iter
    (fun key _ ->
      deg.(key / n) <- deg.(key / n) + 1;
      deg.(key mod n) <- deg.(key mod n) + 1)
    tbl;
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + deg.(i)
  done;
  let total = off.(n) in
  let nbr = Array.make (max total 1) 0 and cpl = Array.make (max total 1) 0. in
  let cursor = Array.copy off in
  Hashtbl.iter
    (fun key c ->
      let i = key / n and j = key mod n in
      nbr.(cursor.(i)) <- j;
      cpl.(cursor.(i)) <- c;
      cursor.(i) <- cursor.(i) + 1;
      nbr.(cursor.(j)) <- i;
      cpl.(cursor.(j)) <- c;
      cursor.(j) <- cursor.(j) + 1)
    tbl;
  { n; h = Array.copy h; off; nbr; cpl; offset }

let local_field t spins i =
  let f = ref t.h.(i) in
  for k = t.off.(i) to t.off.(i + 1) - 1 do
    f := !f +. (t.cpl.(k) *. float_of_int spins.(t.nbr.(k)))
  done;
  !f

let energy t spins =
  let e = ref t.offset in
  for i = 0 to t.n - 1 do
    e := !e +. (t.h.(i) *. float_of_int spins.(i));
    for k = t.off.(i) to t.off.(i + 1) - 1 do
      let j = t.nbr.(k) in
      if j > i then e := !e +. (t.cpl.(k) *. float_of_int (spins.(i) * spins.(j)))
    done
  done;
  !e
