(** Random and structured graph generators used by tests and benchmarks. *)

val erdos_renyi : Dcs_util.Prng.t -> n:int -> p:float -> Ugraph.t
(** G(n, p), unit weights. *)

val erdos_renyi_connected : Dcs_util.Prng.t -> n:int -> p:float -> Ugraph.t
(** G(n, p) plus a random Hamiltonian path to guarantee connectivity. *)

val gnm : Dcs_util.Prng.t -> n:int -> m:int -> Ugraph.t
(** Uniform graph with exactly [m] distinct edges (requires m <= n(n-1)/2). *)

val random_digraph : Dcs_util.Prng.t -> n:int -> p:float -> max_weight:float -> Digraph.t
(** Each ordered pair gets an edge with probability [p] and weight uniform in
    (0, max_weight]. *)

val balanced_digraph :
  Dcs_util.Prng.t -> n:int -> p:float -> beta:float -> max_weight:float -> Digraph.t
(** Strongly connected digraph that is provably β-balanced: built from a
    random cycle plus random edges, where every edge (u,v) of weight w gets a
    reverse edge of weight at least w/β (the edgewise sufficient condition).
    The generator plants some cuts with ratio close to β. *)

val complete_bipartite_digraph :
  left:int ->
  right:int ->
  fwd:(int -> int -> float) ->
  bwd:(int -> int -> float) ->
  Digraph.t
(** Vertices 0..left-1 on the left, left..left+right-1 on the right; forward
    weight [fwd i j] and backward weight [bwd i j] for left index i and right
    index j (weights of 0 omit the edge). *)

val planted_mincut :
  Dcs_util.Prng.t -> block:int -> k:int -> p_inner:float -> Ugraph.t
(** Two G(block, p_inner) blocks (each made connected) joined by exactly [k]
    cross edges: the min cut is [k] whenever p_inner is large enough that
    each block is internally >k-connected. Unit weights. *)

val cycle : n:int -> Ugraph.t
val path : n:int -> Ugraph.t
val complete : n:int -> Ugraph.t

val hypercube : dim:int -> Ugraph.t
(** The d-dimensional hypercube Q_d: 2^d vertices, edge connectivity d. *)

val grid : rows:int -> cols:int -> Ugraph.t
(** 2D grid with unit weights. *)

val preferential_attachment : Dcs_util.Prng.t -> n:int -> m_per_node:int -> Ugraph.t
(** Barabási–Albert-style growth: each new vertex attaches to
    [m_per_node] existing vertices chosen proportionally to degree
    (with an initial clique of m_per_node + 1 vertices). *)

val random_regular : Dcs_util.Prng.t -> n:int -> degree:int -> Ugraph.t
(** Configuration-model d-regular simple graph (pairing retried until
    simple); requires n·degree even and degree < n. *)

val random_multigraph_weights :
  Dcs_util.Prng.t -> Ugraph.t -> max_weight:int -> Ugraph.t
(** Re-weight each edge with an integer uniform in 1..max_weight (models
    integer multiplicities for the Nagamochi–Ibaraki machinery). Draws
    follow [g]'s table order, not {!Ugraph.edges}: every caller passes a
    graph another generator just built, and the order keeps every
    generated instance byte-identical. *)
