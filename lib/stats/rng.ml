type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5deece66d |]

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n";
  Array.init n (fun i ->
      Random.State.make
        [|
          Random.State.bits t;
          Random.State.bits t;
          Random.State.bits t;
          0x9e3779b9 * (i + 1);
        |])
let int t bound = Random.State.int t bound
let float t bound = Random.State.float t bound
let bool t = Random.State.bool t

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = Random.State.float t 1.0 in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = Random.State.float t 1.0 in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  let arr = Array.init n Fun.id in
  shuffle t arr;
  Array.to_list (Array.sub arr 0 k)
