(** Eulerian (circulation) digraphs: the β = 1 extreme of balance.

    A digraph is a circulation when every vertex has equal weighted
    in-degree and out-degree. By flow conservation, every directed cut then
    satisfies w(S, V\S) = w(V\S, S) exactly — circulations are precisely
    the 1-balanced graphs, the class (Eulerian sparsification) the paper's
    related work singles out. *)

val is_circulation : Digraph.t -> bool
(** Per-vertex in-weight = out-weight, within 1e-9. *)

val random_circulation :
  Dcs_util.Prng.t -> n:int -> cycles:int -> max_weight:float -> Digraph.t
(** Sum of [cycles] random weighted directed cycles (each a uniform
    permutation cycle over a random subset): a circulation by
    construction, strongly connected for modestly many cycles. *)

val make_circulation : Digraph.t -> Digraph.t
(** Rebalance a digraph into a circulation by routing each vertex's
    imbalance along the cycle 0 → 1 → … → n-1 → 0 (adds at most 2n
    correction edges; weights stay nonnegative). *)
