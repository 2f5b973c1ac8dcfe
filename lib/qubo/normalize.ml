let d_star h =
  let m = ref 0. in
  Pbq.iter_linear h (fun _ b -> m := Float.max !m (Float.abs b /. 2.));
  Pbq.iter_quad h (fun _ _ j -> m := Float.max !m (Float.abs j));
  if !m = 0. then 1.0 else !m

let apply h = Pbq.scale h (1. /. d_star h)

let within_hardware_range h =
  let eps = 1e-9 in
  let ok = ref true in
  Pbq.iter_linear h (fun _ b -> if Float.abs b > 2. +. eps then ok := false);
  Pbq.iter_quad h (fun _ _ j -> if Float.abs j > 1. +. eps then ok := false);
  !ok
