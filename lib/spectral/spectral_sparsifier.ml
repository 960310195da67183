module Ugraph = Dcs_graph.Ugraph

let probability ?(c = 4.0) ~eps g =
  if eps <= 0.0 || eps >= 1.0 then invalid_arg "Spectral_sparsifier: eps in (0,1)";
  let n = float_of_int (max 2 (Ugraph.n g)) in
  let rs = Resistance.all_edges g in
  fun u v w ->
    let r = Hashtbl.find rs (min u v, max u v) in
    c *. w *. r *. log n /. (eps *. eps)

let sparsify ?c rng ~eps g =
  Dcs_sketch.Importance.sample_ugraph rng ~prob:(probability ?c ~eps g) g

let expected_edges ?c ~eps g =
  Dcs_sketch.Importance.expected_edges_ugraph ~prob:(probability ?c ~eps g) g
