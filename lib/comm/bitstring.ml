type t = bool array

let zeros n = Array.make n false
let length = Array.length

let random rng n = Array.init n (fun _ -> Dcs_util.Prng.bool rng)

let random_weight rng ~n ~weight =
  if weight < 0 || weight > n then invalid_arg "Bitstring.random_weight";
  let s = Array.make n false in
  let picks = Dcs_util.Prng.sample_without_replacement rng ~k:weight ~n in
  Array.iter (fun i -> s.(i) <- true) picks;
  s

let hamming_weight s = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 s

let hamming_distance a b =
  if length a <> length b then invalid_arg "Bitstring.hamming_distance: length";
  let acc = ref 0 in
  Array.iteri (fun i x -> if x <> b.(i) then incr acc) a;
  !acc

let intersection_size a b =
  if length a <> length b then invalid_arg "Bitstring.intersection_size: length";
  let acc = ref 0 in
  Array.iteri (fun i x -> if x && b.(i) then incr acc) a;
  !acc

let disjoint a b = intersection_size a b = 0

let ones s =
  let out = ref [] in
  for i = length s - 1 downto 0 do
    if s.(i) then out := i :: !out
  done;
  !out

let concat = Array.concat
