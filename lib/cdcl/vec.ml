type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (Stdlib.max capacity 1) dummy; size = 0; dummy }

let size t = t.size
let is_empty t = t.size = 0

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

let unsafe_set t i x =
  assert (i >= 0 && i < t.size);
  Array.unsafe_set t.data i x

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) t.dummy in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let push t x =
  if t.size = Array.length t.data then grow t;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then invalid_arg "Vec.pop";
  t.size <- t.size - 1;
  let x = t.data.(t.size) in
  t.data.(t.size) <- t.dummy;
  x

let last t =
  if t.size = 0 then invalid_arg "Vec.last";
  t.data.(t.size - 1)

let clear t =
  Array.fill t.data 0 t.size t.dummy;
  t.size <- 0

let shrink t n =
  if n < 0 || n > t.size then invalid_arg "Vec.shrink";
  Array.fill t.data n (t.size - n) t.dummy;
  t.size <- n

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.size - 1 do
    f i t.data.(i)
  done

let exists p t =
  let rec go i = i < t.size && (p t.data.(i) || go (i + 1)) in
  go 0

let to_list t = List.init t.size (fun i -> t.data.(i))

let filter_in_place p t =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    if p t.data.(i) then begin
      t.data.(!j) <- t.data.(i);
      incr j
    end
  done;
  shrink t !j
