(** Strength-based importance sampling for *for-each* cut estimation on
    undirected graphs.

    Keeps edge e with p_e = min(1, c·w_e/(ε²·k_e)) (k_e the NI index) and
    reweights by 1/p_e. For a fixed cut S, Var(ŵ(S)) <= Σ_{e∈S} w_e²/p_e
    <= (ε²/c)·Σ_{e∈S} w_e·k_e <= (ε²/c)·w(S)², because each crossing edge's
    connectivity is at most the cut value; Chebyshev then gives a (1 ± O(ε))
    estimate for each fixed cut with constant probability — the for-each
    guarantee, with no union-bound log n oversampling (the factor separating
    this from the for-all sampler at equal ε).

    Note: the asymptotically optimal Õ(n/ε) for-each sketch of ACK+16
    requires a multi-level construction not reproduced here; DESIGN.md
    records the substitution. *)

val sparsify :
  ?c:float -> Dcs_util.Prng.t -> eps:float -> Dcs_graph.Ugraph.t -> Dcs_graph.Ugraph.t

val expected_edges : eps:float -> Dcs_graph.Ugraph.t -> float
(** Predicted sample size at the default [c] (3.0). *)
