(** AGM graph sketching (Ahn–Guha–McGregor, PODS 2012) — the linear-
    measurement framework the paper's introduction places itself in.

    Each vertex u carries O(log n) independent ℓ₀-samplers over its signed
    edge-incidence vector (entry +1 at index of edge (u,v) when u < v,
    -1 when u > v). Because the samplers are linear, the sum of the
    sketches over any vertex set S is a sketch of the edges crossing
    (S, V\S): internal edges cancel. Boruvka rounds over merged component
    sketches then recover a spanning forest — and hence connectivity — of
    a graph presented as a stream of edge insertions and deletions, using
    O(n·polylog n) bits in total.

    Unweighted, simple graphs; each (u,v) should have net multiplicity 0
    or 1 at query time (turnstile semantics). *)

type t

val create : ?copies:int -> Dcs_util.Prng.t -> n:int -> t
(** Sketch for an n-vertex graph, with ceil(log2 n) + 2 Boruvka rounds.
    [copies] is the per-round redundancy (default 3), trading size for
    decode success. *)

val n : t -> int

val add_edge : t -> int -> int -> unit
val remove_edge : t -> int -> int -> unit
(** Turnstile updates; removing an edge that was never inserted corrupts
    the sketch (as in the model). *)

val spanning_forest : t -> (int * int) list
(** Boruvka over the sketches: a spanning forest of the current graph,
    with high constant probability (per-component decode failures can
    truncate the forest; callers needing certainty re-run with more
    copies). Consumes fresh sampler rounds — can be called once. *)

val components_after_forest : t -> (int * int) list -> int array
(** Component labels implied by a recovered forest. *)

val connected : t -> bool
(** [spanning_forest] has n-1 edges. *)

val size_bits : t -> int
(** Total sketch size. *)

val edge_index : n:int -> int -> int -> int
(** The universe index used for edge (u,v); exposed for tests. *)
