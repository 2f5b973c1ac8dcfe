type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (Stdlib.max capacity 1) dummy; size = 0; dummy }

let size t = t.size

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Vec.get";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.size then invalid_arg "Vec.set";
  t.data.(i) <- x

(* hot-loop accessors: bounds are the caller's contract, checked only in
   debug builds (asserts compile away under -noassert) *)
let unsafe_get t i =
  assert (i >= 0 && i < t.size);
  Array.unsafe_get t.data i

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) t.dummy in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let push t x =
  if t.size = Array.length t.data then grow t;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let shrink t n =
  if n < 0 || n > t.size then invalid_arg "Vec.shrink";
  Array.fill t.data n (t.size - n) t.dummy;
  t.size <- n

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

let filter_in_place p t =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    if p t.data.(i) then begin
      t.data.(!j) <- t.data.(i);
      incr j
    end
  done;
  shrink t !j
