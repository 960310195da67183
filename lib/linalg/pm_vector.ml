type t = int array

let of_array a =
  Array.iter (fun x -> if x <> 1 && x <> -1 then invalid_arg "Pm_vector.of_array") a;
  a

let dot u v =
  if Array.length u <> Array.length v then invalid_arg "Pm_vector.dot: length";
  let acc = ref 0 in
  Array.iteri (fun i x -> acc := !acc + (x * v.(i))) u;
  !acc

let sum v = Array.fold_left ( + ) 0 v

let is_balanced v = sum v = 0

let tensor u v =
  let nu = Array.length u and nv = Array.length v in
  Array.init (nu * nv) (fun idx -> u.(idx / nv) * v.(idx mod nv))

let support sign v =
  let out = ref [] in
  for i = Array.length v - 1 downto 0 do
    if v.(i) = sign then out := i :: !out
  done;
  Array.of_list !out

let positive_support v = support 1 v
let negative_support v = support (-1) v

let dot_float v w =
  if Array.length v <> Array.length w then invalid_arg "Pm_vector.dot_float: length";
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (float_of_int x *. w.(i))) v;
  !acc
