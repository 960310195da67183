(** Weighted directed graphs on vertices 0..n-1.

    The representation favors the access patterns of this library: cut-value
    computation (iterate all out-edges of one side), per-pair weight lookup
    (decoders subtracting fixed backward weights), and incremental
    construction by encoders and samplers. Parallel edges are merged by
    accumulating weights; weights are nonnegative floats. *)

type t

val create : int -> t
(** [create n] is the empty graph on [n] vertices. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of distinct directed edges with nonzero weight. *)

val add_edge : t -> int -> int -> float -> unit
(** [add_edge g u v w] adds [w] to the weight of edge (u, v). Requires
    [u <> v], a finite [w >= 0] (NaN and infinities raise
    [Invalid_argument]), and valid vertex ids. Adding weight 0 is a
    no-op. *)

val set_edge : t -> int -> int -> float -> unit
(** Overwrite the weight of (u, v); weight 0 removes the edge. The same
    checks as {!add_edge}. *)

val weight : t -> int -> int -> float
(** Weight of (u, v), 0 if absent. *)

val mem_edge : t -> int -> int -> bool

val iter_out : t -> int -> (int -> float -> unit) -> unit
(** Iterate over out-neighbors of a vertex with edge weights. *)

val iter_in : t -> int -> (int -> float -> unit) -> unit

val unsafe_weight : t -> int -> int -> float
(** {!weight} without the two bounds checks. For hot loops whose vertex ids
    are validated once at entry (decoders probing k·(1/ε²) pairs per
    decode); out-of-range ids raise [Invalid_argument] from the array
    access at best. *)

val unsafe_iter_out : t -> int -> (int -> float -> unit) -> unit
(** {!iter_out} without the bounds check. *)

val unsafe_iter_in : t -> int -> (int -> float -> unit) -> unit
(** {!iter_in} without the bounds check. *)

val fold_out : t -> int -> ('a -> int -> float -> 'a) -> 'a -> 'a

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val out_weight : t -> int -> float
(** Total weight of edges leaving a vertex. *)

val in_weight : t -> int -> float

val iter_edges : t -> (int -> int -> float -> unit) -> unit
(** Every directed edge once, in table order: sources ascending, targets
    in table order (insertion-dependent). [Csr.of_digraph]'s counting
    passes rely on the ascending sources; {!fold_edges} folds in the same
    order. *)

val fold_edges : (int -> int -> float -> 'a -> 'a) -> t -> 'a -> 'a

val edges : t -> (int * int * float) array
(** Every arc in ascending (u, v) order, by one counting pass over the
    in-adjacency: the canonical order. Any result that depends on edge
    order (a draw per arc, a float sum such as {!total_weight}) reads it. *)

val total_weight : t -> float

val of_edges : int -> (int * int * float) list -> t

val copy : t -> t

val reverse : t -> t
(** Graph with every edge direction flipped. *)

val map_weights : t -> (int -> int -> float -> float) -> t
(** Fresh graph with re-mapped weights; mapping to 0 drops the edge. *)

val cut_weight : t -> (int -> bool) -> float
(** [cut_weight g mem] is w(S, V\S) for S = \{v | mem v\}: total weight of
    edges from S to its complement. O(sum of out-degrees of S). *)

val cut_weight_into : t -> (int -> bool) -> float
(** w(V\S, S): total weight entering S. *)

val symmetrize : t -> t
(** Undirected projection as a digraph: weight of (u,v) and (v,u) both become
    w(u,v) + w(v,u). *)

val equal : t -> t -> bool
(** Same vertex count and identical edge weights (exact float equality). *)

val pp : Format.formatter -> t -> unit
