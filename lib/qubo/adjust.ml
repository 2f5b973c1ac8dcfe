(* [d_sub objective s] is Equation 7's [d_{i,j}]: the max of [|B_x|/2] over
   the sub-clause's variables and [|J_{x1,x2}|] over its variable pairs, as
   coefficients of the global [objective].  Returns [1.0] if every involved
   coefficient vanished. *)
let d_sub objective (s : Encode.sub) =
  let m = ref 0. in
  let rec pairs = function
    | [] -> ()
    | v :: rest ->
        m := Float.max !m (Float.abs (Pbq.linear objective v) /. 2.);
        List.iter (fun w -> m := Float.max !m (Float.abs (Pbq.quad objective v w))) rest;
        pairs rest
  in
  pairs s.Encode.sub_vars;
  if !m = 0. then 1.0 else !m

(* restore all α to 1 *)
let reset (t : Encode.t) = Array.iter (fun s -> s.Encode.alpha <- 1.) t.Encode.subs

let eps = 1e-9

(* one capping pass over [obj], the objective of the current α's: for every
   term whose stacked coefficient exceeds d*, scale the boosted sub-clauses
   containing that term back down (never below α = 1).  Returns true if
   anything was scaled, which makes [obj] stale. *)
let cap_pass (t : Encode.t) obj d_star =
  let offenders = ref [] in
  Pbq.iter_linear obj (fun v b ->
      let c = Float.abs b /. 2. in
      if c > d_star +. eps then offenders := ([ v ], d_star /. c) :: !offenders);
  Pbq.iter_quad obj (fun u w j ->
      let c = Float.abs j in
      if c > d_star +. eps then offenders := ([ u; w ], d_star /. c) :: !offenders);
  match !offenders with
  | [] -> false
  | offenders ->
      Array.iter
        (fun s ->
          if s.Encode.alpha > 1. then
            List.iter
              (fun (vars, factor) ->
                if List.for_all (fun v -> List.mem v s.Encode.sub_vars) vars then
                  s.Encode.alpha <- Float.max 1. (s.Encode.alpha *. factor))
              offenders)
        t.Encode.subs;
      true

let adjust (t : Encode.t) =
  reset t;
  let baseline = Encode.objective t in
  let d_star = Normalize.d_star baseline in
  Array.iter (fun s -> s.Encode.alpha <- d_star /. d_sub baseline s) t.Encode.subs;
  (* Clauses sharing variables stack their boosted coefficients, which can
     push a term past d* and so grow the normalisation divisor — quietly
     dividing the energy gap back away (the paper's single-clause example
     cannot exhibit this).  Cap to a fixpoint: every α has the baseline
     (α = 1) as a floor and baseline coefficients are ≤ d* by definition,
     so the iteration terminates. *)
  (* convergence is geometric but the per-pass factor can sit very close
     to 1 when a stacked term is dominated by floored (α = 1) baseline
     contributions, so give the fixpoint enough passes to shrink the
     residual overshoot well below the eps tolerance *)
  (* a pass that scales nothing leaves its objective current, so that one is
     the result; only a spent budget builds one more, after its last pass *)
  let rec cap budget =
    let obj = Encode.objective t in
    if budget > 0 && cap_pass t obj d_star then cap (budget - 1) else obj
  in
  cap 256
