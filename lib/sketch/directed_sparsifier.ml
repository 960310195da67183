module Digraph = Dcs_graph.Digraph
module Ugraph = Dcs_graph.Ugraph
module Prng = Dcs_util.Prng

let check_params ~eps ~beta =
  if eps <= 0.0 || eps >= 1.0 then invalid_arg "Directed_sparsifier: eps in (0,1)";
  if beta < 1.0 then invalid_arg "Directed_sparsifier: beta >= 1"

let probability ~oversample g =
  let proj = Ugraph.of_digraph g in
  let strengths = Strength.compute proj in
  fun u v _w ->
    let k = float_of_int (Strength.index strengths u v) in
    oversample /. k

let forall_sparsify ?(c = 4.0) rng ~eps ~beta g =
  check_params ~eps ~beta;
  let n = float_of_int (max 2 (Digraph.n g)) in
  let oversample = c *. beta *. log n /. (eps *. eps) in
  Importance.sample_digraph rng ~prob:(probability ~oversample g) g

let foreach_sparsify ?(c = 4.0) rng ~eps ~beta g =
  check_params ~eps ~beta;
  let oversample = c *. beta /. (eps *. eps) in
  Importance.sample_digraph rng ~prob:(probability ~oversample g) g

let to_sketch ~name h =
  Sketch.of_digraph ~name ~size_bits:(Sketch.digraph_encoding_bits h) h

let forall_sketch rng ~eps ~beta g =
  to_sketch
    ~name:(Printf.sprintf "directed-forall(eps=%g,beta=%g)" eps beta)
    (forall_sparsify rng ~eps ~beta g)

let foreach_sketch ?c rng ~eps ~beta g =
  to_sketch
    ~name:(Printf.sprintf "directed-foreach(eps=%g,beta=%g)" eps beta)
    (foreach_sparsify ?c rng ~eps ~beta g)
