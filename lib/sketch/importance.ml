module Prng = Dcs_util.Prng
module Ugraph = Dcs_graph.Ugraph
module Digraph = Dcs_graph.Digraph

let clamp p = Float.max 0.0 (Float.min 1.0 p)

(* Sampling consumes the PRNG once per kept-or-rejected edge, so the edge
   order decides which draw lands on which edge. The samplers and the
   expected-size sums walk the canonical order of [Ugraph.edges] /
   [Digraph.edges], so a sample is a pure function of (seed, graph
   content): two equal graphs built by different routes (batch vs.
   streamed-and-compacted) sample the same subgraph from the same seed. *)
let sample rng ~prob ~add edges =
  Array.iter
    (fun (u, v, w) ->
      let p = clamp (prob u v w) in
      if p >= 1.0 then add u v w
      else if p > 0.0 && Prng.bernoulli rng p then add u v (w /. p))
    edges

let sample_ugraph rng ~prob g =
  let h = Ugraph.create (Ugraph.n g) in
  sample rng ~prob ~add:(Ugraph.add_edge h) (Ugraph.edges g);
  h

let sample_digraph rng ~prob g =
  let h = Digraph.create (Digraph.n g) in
  sample rng ~prob ~add:(Digraph.add_edge h) (Digraph.edges g);
  h

(* Binomial weight resampling: an integer weight w is w parallel unit
   edges, each kept independently with probability p and rescaled by 1/p —
   so E[kept weight] = w (unbiased per cut, like the whole-edge coin) but
   with per-edge variance w·(1-p)/p² instead of w²·(1-p)/p², a factor w
   lower. Non-integer (or sub-unit) weights fall back to the single
   whole-edge Bernoulli coin. This is the resampling step of CCPS21's
   compress. *)
let binomial_split_ok w =
  w >= 1.0 && Float.abs (w -. Float.round w) <= 1e-9 && w <= 1e6

let binomial_keep rng ~p ~w =
  let p = clamp p in
  if p <= 0.0 then None
  else if p >= 1.0 then Some w
  else if binomial_split_ok w then begin
    let x = Prng.binomial rng ~n:(int_of_float (Float.round w)) ~p in
    if x > 0 then Some (float_of_int x /. p) else None
  end
  else if Prng.bernoulli rng p then Some (w /. p)
  else None

let keep_probability ~p ~w =
  let p = clamp p in
  if p <= 0.0 then 0.0
  else if p >= 1.0 then 1.0
  else if binomial_split_ok w then 1.0 -. ((1.0 -. p) ** Float.round w)
  else p

let expected_edges ~prob edges =
  Array.fold_left (fun acc (u, v, w) -> acc +. clamp (prob u v w)) 0.0 edges

let expected_edges_ugraph ~prob g = expected_edges ~prob (Ugraph.edges g)

let expected_edges_digraph ~prob g = expected_edges ~prob (Digraph.edges g)
