(** Vertex cuts: a side S with ∅ ⊂ S ⊂ V, represented as a bitmap.

    A cut value in this library is always the *directed* total weight
    w(S, V\S); undirected graphs are handled by symmetric digraphs, whose
    directed cut value equals the usual undirected cut value. *)

type t

val of_mem : n:int -> (int -> bool) -> t
(** Membership predicate sampled on 0..n-1. *)

val of_indices : n:int -> int list -> t
val of_array : bool array -> t
val singleton : n:int -> int -> t

val n : t -> int
val mem : t -> int -> bool

val unsafe_side : t -> bool array
(** The membership bitmap itself, not a copy (O(1)): [(unsafe_side c).(v)]
    is [mem c v]. Read-only — a cut is immutable, and writing to the array
    corrupts it and its {!cardinal}. For kernels that walk a cut's side
    without a closure call per vertex ({!Csr.cut_value}). *)

val cardinal : t -> int
val complement : t -> t
val to_list : t -> int list
val union : t -> t -> t
val is_proper : t -> bool
(** Neither empty nor the full vertex set. *)

val value : Digraph.t -> t -> float
(** w(S, V\S). *)

val value_rev : Digraph.t -> t -> float
(** w(V\S, S). *)

val equal : t -> t -> bool

val random : Dcs_util.Prng.t -> n:int -> t
(** Uniformly random proper cut (each vertex a fair coin, rejected until
    proper; requires n >= 2). *)

val random_of_size : Dcs_util.Prng.t -> n:int -> k:int -> t
(** Uniformly random side of exactly [k] vertices, 0 < k < n. *)

val pp : Format.formatter -> t -> unit
