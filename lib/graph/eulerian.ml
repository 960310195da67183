module Prng = Dcs_util.Prng

let imbalance g =
  Array.init (Digraph.n g) (fun v -> Digraph.out_weight g v -. Digraph.in_weight g v)

let is_circulation g =
  Array.for_all (fun b -> Float.abs b <= 1e-9) (imbalance g)

let random_circulation rng ~n ~cycles ~max_weight =
  if n < 2 then invalid_arg "Eulerian.random_circulation: n >= 2";
  if cycles < 1 then invalid_arg "Eulerian.random_circulation: cycles >= 1";
  let g = Digraph.create n in
  for _ = 1 to cycles do
    let len = 2 + Prng.int rng (n - 1) in
    let verts = Prng.sample_without_replacement rng ~k:len ~n in
    let w = 0.5 +. Prng.float rng max_weight in
    for i = 0 to len - 1 do
      Digraph.add_edge g verts.(i) verts.((i + 1) mod len) w
    done
  done;
  g

let make_circulation g =
  let n = Digraph.n g in
  if n < 2 then invalid_arg "Eulerian.make_circulation: n >= 2";
  let h = Digraph.copy g in
  let b = imbalance g in
  (* Correction flow x_v on the arc v -> v+1 (mod n) solving
     x_{v-1} - x_v = b_v: x_v = t - prefix_v with t chosen so x >= 0. *)
  let prefix = Array.make n 0.0 in
  let acc = ref 0.0 in
  for v = 0 to n - 1 do
    acc := !acc +. b.(v);
    prefix.(v) <- !acc
  done;
  let t = Array.fold_left Float.max 0.0 prefix in
  for v = 0 to n - 1 do
    let x = t -. prefix.(v) in
    if x > 1e-12 then Digraph.add_edge h v ((v + 1) mod n) x
  done;
  h
