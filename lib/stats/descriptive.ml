let nonempty name xs = if Array.length xs = 0 then invalid_arg ("Descriptive." ^ name)

let sum xs = Array.fold_left ( +. ) 0. xs

let mean xs =
  nonempty "mean" xs;
  sum xs /. float_of_int (Array.length xs)

let variance xs =
  nonempty "variance" xs;
  let m = mean xs in
  sum (Array.map (fun x -> (x -. m) ** 2.) xs) /. float_of_int (Array.length xs)

let std xs = sqrt (variance xs)

let geomean xs =
  nonempty "geomean" xs;
  Array.iter (fun x -> if x <= 0. then invalid_arg "Descriptive.geomean: nonpositive") xs;
  exp (sum (Array.map log xs) /. float_of_int (Array.length xs))

let sorted xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  ys

let percentile xs p =
  nonempty "percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Descriptive.percentile: p out of range";
  let ys = sorted xs in
  let n = Array.length ys in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  let frac = rank -. floor rank in
  (ys.(lo) *. (1. -. frac)) +. (ys.(hi) *. frac)

let min xs =
  nonempty "min" xs;
  Array.fold_left Float.min xs.(0) xs

let max xs =
  nonempty "max" xs;
  Array.fold_left Float.max xs.(0) xs

let correlation xs ys =
  if Array.length xs <> Array.length ys then invalid_arg "Descriptive.correlation";
  nonempty "correlation" xs;
  let mx = mean xs and my = mean ys in
  let cov = ref 0. and vx = ref 0. and vy = ref 0. in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      cov := !cov +. (dx *. dy);
      vx := !vx +. (dx *. dx);
      vy := !vy +. (dy *. dy))
    xs;
  if !vx = 0. || !vy = 0. then 0. else !cov /. sqrt (!vx *. !vy)

type histogram = { lo : float; hi : float; counts : int array }

let histogram ~bins xs =
  nonempty "histogram" xs;
  if bins <= 0 then invalid_arg "Descriptive.histogram: bins";
  let lo = min xs and hi = max xs in
  let counts = Array.make bins 0 in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1. in
  Array.iter
    (fun x ->
      let b = int_of_float ((x -. lo) /. width) in
      let b = if b >= bins then bins - 1 else if b < 0 then 0 else b in
      counts.(b) <- counts.(b) + 1)
    xs;
  { lo; hi; counts }

let pp_histogram fmt { lo; hi; counts } =
  let bins = Array.length counts in
  let width = (hi -. lo) /. float_of_int bins in
  let peak = Array.fold_left Stdlib.max 1 counts in
  Array.iteri
    (fun i c ->
      let bar = String.make (c * 40 / peak) '#' in
      Format.fprintf fmt "[%8.2f,%8.2f) %5d %s@." (lo +. (float_of_int i *. width))
        (lo +. (float_of_int (i + 1) *. width))
        c bar)
    counts
