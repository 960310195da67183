(** Generic importance sampling of edges: keep edge e with probability p_e,
    reweight kept edges by w_e / p_e (unbiased for every cut). Draws and
    sums walk {!Dcs_graph.Ugraph.edges} / {!Dcs_graph.Digraph.edges}, so
    results are a pure function of (seed, graph content). *)

val sample_ugraph :
  Dcs_util.Prng.t ->
  prob:(int -> int -> float -> float) ->
  Dcs_graph.Ugraph.t ->
  Dcs_graph.Ugraph.t

val sample_digraph :
  Dcs_util.Prng.t ->
  prob:(int -> int -> float -> float) ->
  Dcs_graph.Digraph.t ->
  Dcs_graph.Digraph.t

val expected_edges_ugraph :
  prob:(int -> int -> float -> float) -> Dcs_graph.Ugraph.t -> float

val expected_edges_digraph :
  prob:(int -> int -> float -> float) -> Dcs_graph.Digraph.t -> float

val binomial_keep :
  Dcs_util.Prng.t -> p:float -> w:float -> float option
(** Binomial weight resampling (the resampling step of CCPS21's compress):
    an integer weight [w] is kept as Binomial(w, p)/p — [None] when the
    binomial count is 0 — which is cut-unbiased like the whole-edge coin
    but with variance lower by a factor of [w]. Non-integer or sub-unit
    weights fall back to a single Bernoulli coin keeping [w/p]. [p] is
    clamped to [0, 1]; [p >= 1] returns [Some w] without consuming the
    stream. *)

val keep_probability : p:float -> w:float -> float
(** Probability that {!binomial_keep} keeps the edge (1 - (1-p)^w for
    integer weights, p otherwise) — the exact expectation to budget
    sketch sizes against. *)
