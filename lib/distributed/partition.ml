module Ugraph = Dcs_graph.Ugraph
module Prng = Dcs_util.Prng

let split ~servers g assign =
  if servers < 1 then invalid_arg "Partition: servers >= 1";
  let shards = Array.init servers (fun _ -> Ugraph.create (Ugraph.n g)) in
  Array.iter
    (fun (u, v, w) -> Ugraph.add_edge shards.(assign u v) u v w)
    (Ugraph.edges g);
  shards

let random rng ~servers g = split ~servers g (fun _ _ -> Prng.int rng servers)

let by_hash ~servers g =
  split ~servers g (fun u v -> ((u * 1000003) + (v * 998244353)) mod servers)

let union n shards =
  let g = Ugraph.create n in
  Array.iter
    (fun shard -> Ugraph.iter_edges shard (fun u v w -> Ugraph.add_edge g u v w))
    shards;
  g
