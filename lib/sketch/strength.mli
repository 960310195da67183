(** Nagamochi–Ibaraki forest decomposition and edge-strength estimates.

    A spanning-forest decomposition assigns every edge an index: compute a
    maximal spanning forest, give its edges index 1, remove them, and
    repeat. An edge whose index is k connects two vertices that are at least
    k-edge-connected in the graph, so the index is a valid lower estimate of
    the edge's local connectivity — exactly what Benczúr–Karger-style
    sampling needs (sampling probabilities may only *over*estimate
    importance, never underestimate it).

    Integer edge weights are treated as multiplicities: an edge of weight w
    may be used by w consecutive forests and receives the index of the
    forest that exhausts it. *)

type t

val compute : ?max_rounds:int -> Dcs_graph.Ugraph.t -> t
(** Weights are rounded to integer multiplicities (minimum 1).
    [max_rounds] caps the number of forests (default 512); surviving edges
    get index [max_rounds], still a valid lower estimate. *)

val index : t -> int -> int -> int
(** NI index of edge (u, v); raises [Invalid_argument] naming the pair for
    a non-edge ("Strength.index: (u, v) is not an edge"). *)

val rounds_used : t -> int

val fold : (int -> int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over (u, v, index) with u < v, in ascending (u, v) order — a pure
    function of graph content, never of hashtable history, so accumulations
    that are order-sensitive (float sums, sampling streams, stage
    artifacts) are byte-stable across equal graphs built by different
    routes. *)

val certificate : t -> Dcs_graph.Ugraph.t -> Dcs_graph.Ugraph.t
(** [certificate t g] (where [t] was computed from [g]) is the
    Nagamochi–Ibaraki sparse certificate: each edge weighted by
    min(number of forests that used it, its weight in [g]) — at most
    [rounds_used t * (n-1)] edge slots however dense [g] is. It is a
    weighted subgraph of [g] preserving every cut of value at most
    [rounds_used t] and hence min(λ(u,v), [rounds_used t]) for every pair,
    in rounded-multiplicity units; max-flow connectivity queries capped at
    [rounds_used t] can therefore run on the certificate instead of [g].
    Raises [Invalid_argument] if vertex counts disagree. *)
