(* Incremental-field Metropolis kernel.

   Invariant maintained across every accepted flip:

     deltas.(i) = -2 · spins.(i) · (h_i + Σ_k J_ik · spins.(k))

   i.e. the energy delta of flipping spin i, kept materialised so an
   attempted flip is one float load and a sign test — the branch resolves
   as fast as the load, which matters as much as the op count because
   accept/reject is data-random and mispredicts pay the full chain.  Only
   an *accepted* flip pays the O(deg) CSR walk: flipping i negates its own
   delta exactly and shifts each neighbour's by 4·J_ij·s_j·s_i' (the 4·J
   products are precomputed; scaling by 4 is exact).  The reference sweep
   pays an O(deg) field summation on every attempt instead.

   The second saving is the acceptance-threshold table: the Metropolis test
   "u < exp(-β·δ)" is bracketed by a precomputed table of exp values over a
   z = β·δ grid, so the transcendental only runs on draws that land inside
   one table cell.  The table lives in z-space, which makes it independent
   of β — the per-sweep rebuild a δ-space table would need degenerates to
   one multiply per attempted flip.  The brackets carry a relative margin
   (1e-9, orders of magnitude above libm's exp error) so a fast-path
   decision can never disagree with the exact fallback — the kernel stays
   RNG-for-RNG and decision-for-decision equivalent to the reference loop.

   The third saving is that an attempted flip allocates nothing.  The
   uniform for the Metropolis test is drawn by [uniform] below instead of
   [Stats.Rng.float]: that call goes through [Random.State.float], whose
   recursive [rawfloat] is never inlined and returns a boxed float, and
   [Stats.Rng.float] boxes the product again — two minor-heap floats per
   uphill attempt, ~3.7 words per attempted flip on a 2000Q-sized anneal
   (the per-flip figure [bench anneal] gates on).  A helper in
   [Stats.Rng] would not help: the default (dev) build compiles our
   libraries with [-opaque], so nothing inlines across them.  [uniform]
   is [Random.State.float rng 1.0] written out from the stdlib's inlinable
   [Random.State.bits64] (OCaml 5.1 [random.ml], [rawfloat]): the top 53
   bits of one 64-bit draw scaled by 2^-53, and on the 2^-53 chance that
   they are all zero, a redraw — which is what [Stats.Rng.float rng 1.0]
   does from that point on.  It consumes the stream draw for draw and
   returns the same value, so seeds reproduce exactly. *)

(* Degenerate-flip tie guard.  A mathematically-zero delta (a balanced
   spin — structurally common in QUBO-derived embedded isings) can round
   to exactly 0.0 under one summation order and to ±1 ulp under another;
   the incremental accumulation and the reference loop's fresh field
   summation are two such orders.  Since "delta <= 0" also decides whether
   a uniform is drawn, a tie that straddles zero would desynchronise the
   two kernels' RNG streams with probability ~1.  Both loops therefore
   treat any delta at or below [tie_eps] as downhill: genuine uphill
   deltas are bounded below by the coefficient granularity of the problem
   (orders of magnitude above 1e-12 after hardware-range normalisation),
   and Metropolis acceptance at such a delta is ≈ 1 anyway. *)
let tie_eps = 1e-12
let buckets = 2048

(* exp(-40) ≈ 4e-18: a uniform draw from [0,1) essentially never lands
   below it, so everything past z_cap resolves by the reject fast path *)
let z_cap = 40.0
let margin = 1e-9
let zstep = z_cap /. float_of_int buckets

(* shared between kernels: the table depends on nothing *)
let hi_table =
  Array.init (buckets + 1) (fun q ->
      exp (-.(float_of_int q *. zstep)) *. (1. +. margin))

let lo_table =
  Array.init (buckets + 1) (fun q ->
      if q = buckets then 0. (* last bucket is open-ended: no fast accept *)
      else exp (-.(float_of_int (q + 1) *. zstep)) *. (1. -. margin))

type t = {
  ising : Sparse_ising.t;
  spins : int array;  (* updated in place; owned by the caller *)
  fspins : float array;  (* float mirror of [spins] — keeps int→float
                            conversion out of the push loop *)
  deltas : float array;  (* flip delta of every spin, kept current *)
  cpl4 : float array;  (* 4 · cpl, CSR layout — the push constants *)
  mutable accepted : int;
}

(* Plain loops rather than [Array.init]/[Array.map]: the generic versions
   box every float they pass through, ~30 minor words per spin here. *)
let init ising spins =
  let n = ising.Sparse_ising.n in
  if Array.length spins <> n then invalid_arg "Kernel.init: spins length";
  let deltas = Array.create_float n and fspins = Array.create_float n in
  for i = 0 to n - 1 do
    (* same expression and rounding as the reference loop's first attempt *)
    deltas.(i) <- -2.0 *. float_of_int spins.(i) *. Sparse_ising.local_field ising spins i;
    fspins.(i) <- float_of_int spins.(i)
  done;
  let cpl = ising.Sparse_ising.cpl in
  let cpl4 = Array.create_float (Array.length cpl) in
  for k = 0 to Array.length cpl - 1 do
    cpl4.(k) <- 4.0 *. cpl.(k)
  done;
  { ising; spins; fspins; deltas; cpl4; accepted = 0 }

let spins t = t.spins
let delta t i = t.deltas.(i)

(* fields aren't stored, but deltas determine them: F_i = -δ_i / (2·s_i),
   and 1/s = s for spins in {-1, +1} *)
let field t i = -0.5 *. t.deltas.(i) *. float_of_int t.spins.(i)
let accepted t = t.accepted

let zstep_inv = 1. /. zstep

(* [Stats.Rng.float rng 1.0] without the boxing; see the header *)
let[@inline always] uniform rng =
  let b = Int64.shift_right_logical (Random.State.bits64 rng) 11 in
  if b <> 0L then Int64.to_float b *. 0x1.p-53 else Stats.Rng.float rng 1.0

(* accepted flip of spin [i]: negate it (δ_i flips sign exactly) and push
   Δδ_j = -2·s_j·ΔF_j = -4·J_ij·s_j·s_i' onto the CSR neighbourhood.
   Unchecked: [i] must be in [0, n), and the CSR indices are validated by
   [Sparse_ising.build].  Top-level so that it inlines at the sweep's
   three accept sites with nothing allocated; a local closure over the
   sweep's arrays would be allocated on every sweep (the compiler has no
   flambda to remove it). *)
let[@inline always] push_flip spins fspins deltas off nbr cpl4 i =
  Array.unsafe_set spins i (-Array.unsafe_get spins i);
  let fs' = -.Array.unsafe_get fspins i in
  Array.unsafe_set fspins i fs';
  Array.unsafe_set deltas i (-.Array.unsafe_get deltas i);
  for k = Array.unsafe_get off i to Array.unsafe_get off (i + 1) - 1 do
    let j = Array.unsafe_get nbr k in
    Array.unsafe_set deltas j
      (Array.unsafe_get deltas j -. (Array.unsafe_get cpl4 k *. fs' *. Array.unsafe_get fspins j))
  done

let flip t i =
  let ising = t.ising in
  if i < 0 || i >= ising.Sparse_ising.n then invalid_arg "Kernel.flip: spin index";
  push_flip t.spins t.fspins t.deltas ising.Sparse_ising.off ising.Sparse_ising.nbr t.cpl4 i;
  t.accepted <- t.accepted + 1

(* The sweep is the whole cost of an anneal, so it drops to unsafe array
   accesses: [i] ranges over [0, n), [off] has n+1 entries, CSR indices are
   validated by [Sparse_ising.build], and the bucket index is clamped into
   [0, buckets] (the [< 0] arm absorbs the unspecified [int_of_float] result
   of a z beyond integer range — it resolves through the exact-exp fallback
   like the rest of the open-ended last bucket). *)
let sweep t ~beta rng =
  let ising = t.ising in
  let n = ising.Sparse_ising.n in
  let spins = t.spins and fspins = t.fspins and deltas = t.deltas in
  let off = ising.Sparse_ising.off
  and nbr = ising.Sparse_ising.nbr
  and cpl4 = t.cpl4 in
  let accepted = ref t.accepted in
  (* one multiply gets from δ to the bucket index; the bucket only has to
     be approximately right — the table margins absorb the rounding
     difference between [δ·(β·zstep_inv)] and [(β·δ)·zstep_inv] — and the
     exact fallback recomputes β·δ itself.  Deltas past [dcap] (z beyond
     the table) resolve on two register compares without touching the
     table: exp(-z) is below [hi_table.(buckets)] there, so [u] at or above
     that is a sure reject and anything else takes the exact fallback.
     That also guarantees the table path's bucket index is in range — no
     clamp in the loop. *)
  let bz = beta *. zstep_inv in
  let dcap = z_cap /. beta in
  let tail_hi = Array.unsafe_get hi_table buckets in
  for i = 0 to n - 1 do
    let delta = Array.unsafe_get deltas i in
    (* RNG discipline matches the reference loop exactly: downhill moves
       (and ties within [tie_eps]) consume no randomness *)
    if delta <= tie_eps then begin
      push_flip spins fspins deltas off nbr cpl4 i;
      incr accepted
    end
    else begin
      let u = uniform rng in
      if delta >= dcap then begin
        if u >= tail_hi then () (* reject, exp-free: the frozen fast path *)
        else if u < exp (-.(beta *. delta)) then begin
          push_flip spins fspins deltas off nbr cpl4 i;
          incr accepted
        end
      end
      else begin
        let q = int_of_float (delta *. bz) in
        if u >= Array.unsafe_get hi_table q then () (* reject, exp-free *)
        else if u < Array.unsafe_get lo_table q || u < exp (-.(beta *. delta)) then begin
          (* the first test is the exp-free accept *)
          push_flip spins fspins deltas off nbr cpl4 i;
          incr accepted
        end
      end
    end
  done;
  t.accepted <- !accepted
