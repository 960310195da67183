(** The local query model of Section 5 (RSW18/ER18/BGMP21).

    The vertex set is known; the edge set is accessible only through three
    query types, each metered:

    - degree query: degree of a vertex;
    - edge (neighbor) query: the i-th neighbor of a vertex, or ⊥ when i
      exceeds its degree (the i-th neighbor ordering is fixed: increasing
      vertex id);
    - adjacency (pair) query: whether (u, v) is an edge.

    Besides raw query counts, the oracle tracks the communication cost of
    the Lemma 5.6 simulation: when the graph is a G_{x,y} construction
    split between Alice and Bob, a degree query costs 0 bits (all degrees
    are known to be √N) and edge/adjacency queries cost 2 bits each.

    {b Faults.} With a {!Dcs_util.Fault} injector a query can {e time
    out} (no answer, but still metered) or {e lie} (a wrong answer). Each
    query then answers by a [vote_k]-way majority whose votes each retry
    timeouts up to 8 attempts ({!Dcs_util.Retry}); an attempt makes the
    metered query, then draws a timeout, then a lie, so the meters count
    every retry and vote (E16's overhead against Theorem 5.7's budget).
    Keep such an oracle unmemoized: an answer never received must not fill
    the memo table. With an inactive injector and [vote_k = 1] the answers
    and query meters are a plain oracle's. *)

type t

exception Exhausted of string
(** Every vote of one query timed out on all its attempts. *)

val create :
  ?memoize:bool -> ?fault:Dcs_util.Fault.t -> ?vote_k:int -> Dcs_graph.Ugraph.t -> t
(** Weights are ignored; the oracle exposes the simple unweighted graph.
    With [memoize] (default false) a repeated identical query is free:
    this models an algorithm that remembers answers, and enforces the
    min\{m, ·\} ceiling of Theorem 1.3 (no algorithm needs to pay more
    than reading the whole graph). With [fault], queries answer through
    the recovery above; [vote_k] (at least 1, and only with [fault])
    defaults to 1 when the policy's lie rate is 0 and 3 otherwise. *)

val n : t -> int

val degree : t -> int -> int

val ith_neighbor : t -> int -> int -> int option
(** [ith_neighbor o u i] with 0-based [i]; [None] when [i >= degree u].
    Counts as one edge query either way. A negative [i] is a malformed
    query, not a ⊥ answer: it raises [Invalid_argument] without touching
    the meters. *)

val adjacent : t -> int -> int -> bool

type stats = {
  degree_queries : int;
  edge_queries : int;
  adjacency_queries : int;
  retries : int;        (** extra attempts forced by timeouts *)
  votes_cast : int;     (** votes across majority votes *)
  backoff_units : int;  (** Σ 2^attempt simulated backoff waits *)
}

val stats : t -> stats

val total_queries : t -> int

val comm_bits : t -> int
(** 2·(edge + adjacency queries): the Lemma 5.6 accounting. *)

val reset : t -> unit
(** Zeroes every meter in {!stats} and forgets the memo table. *)
