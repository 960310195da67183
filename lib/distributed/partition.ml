module Ugraph = Dcs_graph.Ugraph
module Prng = Dcs_util.Prng

let random rng ~servers g =
  if servers < 1 then invalid_arg "Partition: servers >= 1";
  let shards = Array.init servers (fun _ -> Ugraph.create (Ugraph.n g)) in
  Array.iter
    (fun (u, v, w) -> Ugraph.add_edge shards.(Prng.int rng servers) u v w)
    (Ugraph.edges g);
  shards

let union n shards =
  let g = Ugraph.create n in
  Array.iter
    (fun shard -> Ugraph.iter_edges shard (fun u v w -> Ugraph.add_edge g u v w))
    shards;
  g
