(* Flat clause arena (MiniSAT RegionAllocator shape, cf. minisat-ml).

   One growable [int array] holds every clause as a contiguous block

     [ header | origin | lit_0 ... lit_{size-1} ]

   addressed by the word index of its header (the clause ref, [cref]).
   The header packs

     bit 0   deleted
     bit 1   learnt
     bit 2   relocated  (GC forwarding marker; [origin] then holds the
                         forwarding cref in the destination arena)
     bits 3+ size       (number of literals)

   Learnt-clause activities live in a float side array indexed by cref, so
   activity arithmetic stays exact (bit-identical to a boxed-float field)
   while the int arena stays scan-friendly.  Deleted blocks are only
   accounted ([wasted]); space is reclaimed by copying live clauses into a
   fresh arena ({!reloc}), the solver rewriting its crefs as it goes. *)

type t = {
  mutable data : int array;
  mutable act : float array; (* activity of the clause headed at index i *)
  mutable sz : int; (* first free word *)
  mutable wasted : int; (* words occupied by deleted clauses *)
}

type cref = int

let lits_offset = 2
let size_shift = 3

let create ?(capacity = 1024) () =
  let capacity = max 16 capacity in
  { data = Array.make capacity 0; act = Array.make capacity 0.; sz = 0; wasted = 0 }

let words t = t.sz
let wasted t = t.wasted
let data t = t.data

let ensure t extra =
  let need = t.sz + extra in
  if need > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let d = Array.make !cap 0 in
    Array.blit t.data 0 d 0 t.sz;
    t.data <- d;
    let a = Array.make !cap 0. in
    Array.blit t.act 0 a 0 t.sz;
    t.act <- a
  end

let alloc t ~learnt ~origin (lits : Sat.Lit.t array) =
  let size = Array.length lits in
  assert (size >= 2);
  ensure t (size + lits_offset);
  let c = t.sz in
  t.data.(c) <- (size lsl size_shift) lor if learnt then 2 else 0;
  t.data.(c + 1) <- origin;
  Array.blit lits 0 t.data (c + lits_offset) size;
  t.act.(c) <- 0.;
  t.sz <- c + size + lits_offset;
  c

let size t c = t.data.(c) lsr size_shift
let learnt t c = t.data.(c) land 2 <> 0
let deleted t c = t.data.(c) land 1 <> 0
let origin t c = t.data.(c + 1)
let lit t c i = t.data.(c + lits_offset + i)
let activity t c = t.act.(c)
let set_activity t c a = t.act.(c) <- a

let lits t c = Array.sub t.data (c + lits_offset) (size t c)
let lit_list t c = Array.to_list (lits t c)

let delete t c =
  assert (not (deleted t c));
  t.data.(c) <- t.data.(c) lor 1;
  t.wasted <- t.wasted + size t c + lits_offset

(* GC: copy the clause into [into] on first touch, leave a forwarding cref
   behind (relocated bit + origin word), answer the forwarding cref on
   every later touch.  Deleted clauses must never be relocated — the
   solver purges them from every cref-holding structure first. *)
let reloc from ~into c =
  if from.data.(c) land 4 <> 0 then from.data.(c + 1)
  else begin
    assert (not (deleted from c));
    let size = size from c in
    ensure into (size + lits_offset);
    let c' = into.sz in
    into.data.(c') <- from.data.(c);
    into.data.(c' + 1) <- from.data.(c + 1);
    Array.blit from.data (c + lits_offset) into.data (c' + lits_offset) size;
    into.act.(c') <- from.act.(c);
    into.sz <- c' + size + lits_offset;
    from.data.(c) <- from.data.(c) lor 4;
    from.data.(c + 1) <- c';
    c'
  end
