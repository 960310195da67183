module Digraph = Dcs_graph.Digraph
module Ugraph = Dcs_graph.Ugraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut

let imbalances g =
  Array.init (Digraph.n g) (fun v -> Digraph.out_weight g v -. Digraph.in_weight g v)

let delta imb c =
  let acc = ref 0.0 in
  Array.iteri (fun v b -> if Cut.mem c v then acc := !acc +. b) imb;
  !acc

let exact_decomposition g c =
  let proj = Ugraph.of_digraph g in
  (Ugraph.cut_value proj c +. delta (imbalances g) c) /. 2.0

let create ?c rng ~eps ~beta g =
  if eps <= 0.0 || eps >= 1.0 then invalid_arg "Imbalance_sketch: eps in (0,1)";
  if beta < 1.0 then invalid_arg "Imbalance_sketch: beta >= 1";
  let n = Digraph.n g in
  let imb = imbalances g in
  let proj = Ugraph.of_digraph g in
  (* u(S) <= (1+β)·w(S,V\S) on β-balanced graphs, so an ε/(1+β)-accurate
     undirected estimate gives ε-accurate directed values. *)
  let eps_u = eps /. (1.0 +. beta) in
  let sampled =
    if eps_u < 1.0 then Foreach_sampler.sparsify ?c rng ~eps:eps_u proj else proj
  in
  let size_bits = (64 * n) + Sketch.ugraph_encoding_bits sampled in
  (* Freeze the sampled projection once; queries scan the flat arrays. *)
  let scsr = Csr.of_ugraph sampled in
  {
    Sketch.name = Printf.sprintf "imbalance-foreach(eps=%g,beta=%g)" eps beta;
    size_bits;
    query = (fun s -> (Csr.cut_value scsr s +. delta imb s) /. 2.0);
    graph = None;
  }
