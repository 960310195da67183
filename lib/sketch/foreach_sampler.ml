module Ugraph = Dcs_graph.Ugraph

let probability ?(c = 3.0) ~eps g =
  if eps <= 0.0 || eps >= 1.0 then invalid_arg "Foreach_sampler: eps in (0,1)";
  let strengths = Strength.compute g in
  fun u v w ->
    let k = float_of_int (Strength.index strengths u v) in
    c *. w /. (eps *. eps *. k)

let sparsify ?c rng ~eps g =
  Dcs_obs_core.Trace.with_span "sketch.foreach.sparsify" @@ fun () ->
  Importance.sample_ugraph rng ~prob:(probability ?c ~eps g) g

let expected_edges ~eps g =
  Importance.expected_edges_ugraph ~prob:(probability ~eps g) g
