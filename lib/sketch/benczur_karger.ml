module Ugraph = Dcs_graph.Ugraph

let probability ?(c = 4.0) ~eps g =
  if eps <= 0.0 || eps >= 1.0 then invalid_arg "Benczur_karger: eps in (0,1)";
  let n = float_of_int (max 2 (Ugraph.n g)) in
  let strengths = Strength.compute g in
  (* The w_e factor treats a weight-w edge as w parallel unit edges (the NI
     index already accounts for multiplicity on the strength side). *)
  fun u v w ->
    let k = float_of_int (Strength.index strengths u v) in
    c *. w *. log n /. (eps *. eps *. k)

let sparsify ?c rng ~eps g =
  Dcs_obs_core.Trace.with_span "sketch.bk.sparsify" @@ fun () ->
  Importance.sample_ugraph rng ~prob:(probability ?c ~eps g) g

let expected_edges ~eps g =
  Importance.expected_edges_ugraph ~prob:(probability ~eps g) g
