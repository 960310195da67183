module Prng = Dcs_util.Prng
module Ugraph = Dcs_graph.Ugraph
module Digraph = Dcs_graph.Digraph

let clamp p = Float.max 0.0 (Float.min 1.0 p)

(* Sampling consumes the PRNG once per kept-or-rejected edge, so the edge
   *iteration order* decides which draw lands on which edge. Hashtable
   order depends on insertion history, which would make two equal graphs
   built by different routes (batch vs. streamed-and-compacted) sample
   different subgraphs from the same seed. Listing the edges in ascending
   (u, v) order makes the sample a pure function of (seed, graph content).
   Counting passes lay that order down without a comparison sort: bucket
   every edge by u, and fill the buckets while walking v in ascending
   order, so each bucket fills sorted by v. *)
let sorted_edges_ugraph g =
  let n = Ugraph.n g in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let later = ref 0 in
    Ugraph.iter_neighbors g u (fun v _ -> if u < v then incr later);
    off.(u + 1) <- off.(u) + !later
  done;
  let edges = Array.make off.(n) (0, 0, 0.0) in
  for v = 0 to n - 1 do
    Ugraph.iter_neighbors g v (fun u w ->
        if u < v then begin
          edges.(off.(u)) <- (u, v, w);
          off.(u) <- off.(u) + 1
        end)
  done;
  edges

(* The in-adjacency already groups arcs by head, so one pass over the
   heads in ascending order fills every tail's bucket sorted. *)
let sorted_edges_digraph g =
  let n = Digraph.n g in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Digraph.out_degree g u
  done;
  let edges = Array.make off.(n) (0, 0, 0.0) in
  for v = 0 to n - 1 do
    Digraph.iter_in g v (fun u w ->
        edges.(off.(u)) <- (u, v, w);
        off.(u) <- off.(u) + 1)
  done;
  edges

let sample_ugraph rng ~prob g =
  let h = Ugraph.create (Ugraph.n g) in
  Array.iter
    (fun (u, v, w) ->
      let p = clamp (prob u v w) in
      if p >= 1.0 then Ugraph.add_edge h u v w
      else if p > 0.0 && Prng.bernoulli rng p then Ugraph.add_edge h u v (w /. p))
    (sorted_edges_ugraph g);
  h

let sample_digraph rng ~prob g =
  let h = Digraph.create (Digraph.n g) in
  Array.iter
    (fun (u, v, w) ->
      let p = clamp (prob u v w) in
      if p >= 1.0 then Digraph.add_edge h u v w
      else if p > 0.0 && Prng.bernoulli rng p then
        Digraph.add_edge h u v (w /. p))
    (sorted_edges_digraph g);
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

let expected_edges_ugraph ~prob g =
  Ugraph.fold_edges (fun u v w acc -> acc +. clamp (prob u v w)) g 0.0

let expected_edges_digraph ~prob g =
  Digraph.fold_edges (fun u v w acc -> acc +. clamp (prob u v w)) g 0.0
