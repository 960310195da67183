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

exception Below_zero of { index : int; count : int }
(** A deletion (or merge) drove a multiplicity below zero in a sketch
    created with [~nonnegative:true]. [index] is the coordinate implicated
    ([-1] for a merge, where no single coordinate is to blame) and [count]
    the offending negative total/multiplicity. Raised {e before} the
    sketch mutates, so the state is left unpoisoned. *)

val create : ?nonnegative:bool -> Dcs_util.Prng.t -> universe:int -> t
(** Sketch over vectors indexed by 0..universe-1. The given PRNG seeds the
    hash functions; two sketches can only be merged if they were created
    from the same seed stream position (use [create_family]).

    With [~nonnegative:true] (default [false]) the sketch promises its
    multiplicities never go negative — the mode for support-indicator
    vectors such as edge-presence streams — and deletions that would break
    the promise raise {!Below_zero} instead of silently poisoning the
    linear state. Detection is two-layered: exact at update time whenever
    the level-0 total (which keeps every index) would go negative, and at
    query time when a verified singleton surfaces a negative multiplicity
    that the aggregate total masked. *)

val create_family :
  Dcs_util.Prng.t -> universe:int -> count:int -> t array
(** [count] sketches sharing hash functions (mergeable with one another),
    each with independent level hashes... see [merge]. All sketches in the
    family use the same hashes, so family members are pairwise mergeable.
    Family members make no nonnegative promise. *)

val nonnegative : t -> bool
(** Whether the sketch was created with the nonnegative promise. *)

val update : t -> int -> int -> unit
(** [update s i delta] adds [delta] to coordinate [i]. Raises
    {!Below_zero} (before mutating) when a nonnegative sketch's exact
    level-0 total would go negative. *)

val merge_into : dst:t -> t -> unit
(** Pointwise addition; sketches must come from the same family. On
    nonnegative sketches, raises {!Below_zero} (before mutating [dst])
    when the merged level-0 total would go negative. *)

val copy : t -> t

val query : t -> (int * int) option
(** [Some (i, c)] with high constant probability when the vector is
    nonzero: a support coordinate and its value. [None] when the vector
    appears to be zero or no level is currently 1-sparse. On nonnegative
    sketches, a verified singleton with negative multiplicity raises
    {!Below_zero} — proof a deletion slipped past the update-time total
    check — instead of being returned or skipped. *)

val is_zero : t -> bool
(** True iff every level is empty (exact for the zero vector; a nonzero
    vector is declared zero only on hash collisions that cancel, which the
    fingerprints make vanishingly unlikely). *)

val size_bits : t -> int
(** Honest serialized size: 3 machine words per level. *)

val digest : t -> int64
(** Content digest of the mutable counters (count / index-sum /
    fingerprint per level), chained through {!Dcs_util.Prng.mix64}. Two
    samplers built from the same hash family hold equal state iff their
    digests agree — the recovery check the streaming layer's
    kill-at-any-boundary battery rests on. *)
