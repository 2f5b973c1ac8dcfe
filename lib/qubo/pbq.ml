type t = {
  mutable c0 : float;
  lin : (int, float) Hashtbl.t;
  quad : (int * int, float) Hashtbl.t; (* keys normalised to i < j *)
}

let create () = { c0 = 0.; lin = Hashtbl.create 16; quad = Hashtbl.create 16 }

let const t = t.c0
let add_const t c = t.c0 <- t.c0 +. c

let eps_zero = 1e-12

let bump tbl key c =
  let cur = Option.value ~default:0. (Hashtbl.find_opt tbl key) in
  let c = cur +. c in
  if Float.abs c < eps_zero then Hashtbl.remove tbl key else Hashtbl.replace tbl key c

let add_linear t i c = bump t.lin i c

let norm_key i j = if i < j then (i, j) else (j, i)

let add_quad t i j c =
  if i = j then invalid_arg "Pbq.add_quad: diagonal term";
  bump t.quad (norm_key i j) c

let linear t i = Option.value ~default:0. (Hashtbl.find_opt t.lin i)
let quad t i j = Option.value ~default:0. (Hashtbl.find_opt t.quad (norm_key i j))

let add_scaled acc t alpha =
  acc.c0 <- acc.c0 +. (alpha *. t.c0);
  Hashtbl.iter (fun i c -> add_linear acc i (alpha *. c)) t.lin;
  Hashtbl.iter (fun (i, j) c -> add_quad acc i j (alpha *. c)) t.quad

let vars t =
  let s = Hashtbl.create 16 in
  Hashtbl.iter (fun i _ -> Hashtbl.replace s i ()) t.lin;
  Hashtbl.iter (fun (i, j) _ -> Hashtbl.replace s i (); Hashtbl.replace s j ()) t.quad;
  List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) s [])

let edges t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.quad [])

let iter_linear t f = Hashtbl.iter f t.lin
let iter_quad t f = Hashtbl.iter (fun (i, j) c -> f i j c) t.quad

let eval t assign =
  let v = ref t.c0 in
  Hashtbl.iter (fun i c -> if assign i then v := !v +. c) t.lin;
  Hashtbl.iter (fun (i, j) c -> if assign i && assign j then v := !v +. c) t.quad;
  !v

let scale t alpha =
  let s = create () in
  add_scaled s t alpha;
  s

let pp fmt t =
  Format.fprintf fmt "%.3f" t.c0;
  List.iter (fun i -> Format.fprintf fmt " %+.3f·x%d" (linear t i) i) (vars t);
  List.iter (fun (i, j) -> Format.fprintf fmt " %+.3f·x%d·x%d" (quad t i j) i j) (edges t)
