type t = { mu : float; sigma : float }

let fit xs =
  let mu = Descriptive.mean xs in
  let sigma = Float.max (Descriptive.std xs) 1e-9 in
  { mu; sigma }

let log_pdf { mu; sigma } x =
  let z = (x -. mu) /. sigma in
  -0.5 *. ((z *. z) +. log (2. *. Float.pi)) -. log sigma

let pp fmt { mu; sigma } = Format.fprintf fmt "N(%.4f, %.4f)" mu sigma
