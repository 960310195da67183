module Prng = Dcs_util.Prng
module Cut = Dcs_graph.Cut

type mode = Random | Adversarial

let create ?(mode = Adversarial) rng ~eps g =
  if eps < 0.0 || eps >= 1.0 then invalid_arg "Noisy_oracle.create: eps in [0,1)";
  let g = Dcs_graph.Digraph.copy g in
  let rng = Prng.fork rng in
  let factor () =
    match mode with
    | Random -> 1.0 +. (eps *. ((2.0 *. Prng.float rng 1.0) -. 1.0))
    | Adversarial -> 1.0 +. (eps *. float_of_int (Prng.sign rng))
  in
  let size_bits = Sketch.digraph_encoding_bits g in
  Dcs_obs_core.Metrics.inc (Dcs_obs_core.Metrics.counter "sketch.built");
  Dcs_obs_core.Metrics.inc ~by:size_bits
    (Dcs_obs_core.Metrics.counter "sketch.size_bits");
  {
    Sketch.name = Printf.sprintf "noisy-oracle(eps=%g)" eps;
    size_bits;
    query = (fun s -> Cut.value g s *. factor ());
    graph = None;
  }
