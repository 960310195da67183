(** Weighted undirected graphs on vertices 0..n-1.

    Used by the Section 5 machinery (local-query min-cut is posed for
    undirected graphs) and by the undirected sparsifiers. Parallel edges
    merge by weight accumulation. *)

type t

val create : int -> t
val n : t -> int
val m : t -> int
(** Number of distinct undirected edges. *)

val add_edge : t -> int -> int -> float -> unit
(** Accumulates; requires [u <> v] and a finite [w >= 0] (NaN and
    infinities raise [Invalid_argument]). *)

val set_edge : t -> int -> int -> float -> unit
(** Overwrite; weight 0 removes the edge. The same checks as
    {!add_edge}. *)

val weight : t -> int -> int -> float
val mem_edge : t -> int -> int -> bool

val iter_neighbors : t -> int -> (int -> float -> unit) -> unit
val degree : t -> int -> int
(** Number of distinct neighbors. *)

val weighted_degree : t -> int -> float

val iter_edges : t -> (int -> int -> float -> unit) -> unit
(** Each undirected edge visited once, with u < v, in table order (u
    ascending, neighbours as the hashtable holds them, which depends on
    insertion history); {!fold_edges} folds in the same order. For work
    that ignores order: counts, copies, maxima. *)

val fold_edges : (int -> int -> float -> 'a -> 'a) -> t -> 'a -> 'a
val edges : t -> (int * int * float) array
(** Every edge (u < v) in ascending (u, v) order, by counting passes in
    O(n + m): the canonical order. Any result that depends on edge order
    (a draw per edge, a float sum such as {!total_weight}) reads it, so
    equal graphs give equal results whatever their insertion history. *)

val total_weight : t -> float
val of_edges : int -> (int * int * float) list -> t
val copy : t -> t

val cut_weight : t -> (int -> bool) -> float
(** Total weight of edges with exactly one endpoint in S, summed in the
    canonical ascending (u, v) order of {!edges}: equal graphs give the
    same bits whatever their insertion history. *)

val cut_value : t -> Cut.t -> float

val to_digraph : t -> Digraph.t
(** Symmetric digraph with both orientations at the undirected weight (so
    directed cut values coincide with undirected ones). *)

val of_digraph : Digraph.t -> t
(** Undirected projection: weight(u,v) + weight(v,u) per unordered pair. *)

val neighbor_array : t -> int -> int array
(** Distinct neighbors of a vertex in increasing order. Used by the local
    query oracle to expose a stable "i-th neighbor" numbering. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
