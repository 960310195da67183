(** Benczúr–Karger cut sparsification for undirected graphs (the for-all
    upper bound the paper's introduction cites, Õ(n/ε²) edges).

    Each edge is kept with probability p_e = min(1, c·w_e·ln n / (ε²·k_e)) where
    k_e is the Nagamochi–Ibaraki forest index (a lower estimate of the
    edge's local connectivity) and reweighted by 1/p_e. With the standard
    analysis, all cuts are preserved within (1 ± ε) with high probability.

    The oversampling constant [c] trades failure probability against size;
    the default (4.0) keeps laptop-scale experiments reliable. *)

val sparsify :
  ?c:float -> Dcs_util.Prng.t -> eps:float -> Dcs_graph.Ugraph.t -> Dcs_graph.Ugraph.t

val sketch : Dcs_util.Prng.t -> eps:float -> Dcs_graph.Ugraph.t -> Sketch.t
(** Graph-valued sketch (symmetric digraph of the sparsifier at [c] = 4.0)
    whose [size_bits] is the canonical encoding of the sparsifier. *)

val expected_edges : eps:float -> Dcs_graph.Ugraph.t -> float
(** Predicted sample size for the given parameters, at [c] = 4.0. *)
