(** ℓ₀-samplers: linear sketches that recover one coordinate from the
    support of a dynamically-updated vector.

    The sketch maintains, for geometrically-sampled sub-universes
    (level j keeps each index with probability 2^-j), the triple
    (count, index-sum, fingerprint). When a level's surviving sub-vector is
    exactly 1-sparse, the coordinate is (index-sum / count) and the
    fingerprint validates it; some level is 1-sparse with constant
    probability whenever the vector is nonzero. The structure is *linear*:
    sketches of two vectors can be merged by addition, which is what lets
    the AGM connectivity sketch sum vertex sketches over a component and
    obtain a sketch of its outgoing edges (internal edges cancel).

    Supports insert/delete (±1 updates), as in turnstile graph streams. *)

type t

val create : Dcs_util.Prng.t -> universe:int -> t
(** Sketch over vectors indexed by 0..universe-1. The given PRNG seeds the
    hash functions; two sketches can only be merged if they were created
    from the same seed stream position (use [create_family]).
    Multiplicities may go negative: the sketch is linear over all
    integer vectors. *)

val create_family :
  Dcs_util.Prng.t -> universe:int -> count:int -> t array
(** [count] sketches sharing hash functions (mergeable with one another),
    each with independent level hashes... see [merge]. All sketches in the
    family use the same hashes, so family members are pairwise mergeable. *)

val update : t -> int -> int -> unit
(** [update s i delta] adds [delta] to coordinate [i]. *)

val merge_into : dst:t -> t -> unit
(** Pointwise addition; sketches must come from the same family. *)

val copy : t -> t

val query : t -> (int * int) option
(** [Some (i, c)] with high constant probability when the vector is
    nonzero: a support coordinate and its value. [None] when the vector
    appears to be zero or no level is currently 1-sparse. *)

val is_zero : t -> bool
(** True iff every level is empty (exact for the zero vector; a nonzero
    vector is declared zero only on hash collisions that cancel, which the
    fingerprints make vanishingly unlikely). *)

val size_bits : t -> int
(** Honest serialized size: 3 machine words per level. *)
