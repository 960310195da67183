(** Frozen compressed-sparse-row graphs: the hot-path representation.

    A [Csr.t] is an immutable snapshot of a {!Digraph} or {!Ugraph} as flat
    offset/endpoint/weight arrays, in both arc directions (one [float array]
    of weights per direction — with [flat_float_array], the compiler
    default, already an unboxed buffer the GC never scans). Freezing costs
    two counting passes over the edges and no sort; afterwards cut evaluation
    is a contiguous scan and single-vertex cut updates are O(degree) via
    {!cut_delta} — the workhorse of the Section 4 subset-enumeration
    decoder and of every solver that evaluates many cuts of one graph.

    Rows are sorted by endpoint, so iteration order — and hence float
    summation order — is canonical: two CSR views of equal graphs give
    byte-identical cut values, regardless of the hashtable history of the
    source. The structure is read-only and safe to share across domains.

    Builds and cut evaluations are metered in the {!Dcs_obs_core.Metrics}
    registry as [csr.builds], [csr.cut_full] and [csr.cut_delta]. *)

type t

val of_digraph : Digraph.t -> t
(** Freeze a directed graph. O(n + m). *)

val of_ugraph : Ugraph.t -> t
(** Freeze an undirected graph as its symmetric directed view: each
    undirected edge becomes two opposite arcs of the same weight, and both
    directions share one arc array. Directed cut values of the result equal
    the undirected cut values of the source. *)

val n : t -> int
val m : t -> int
(** Number of stored arcs (for [of_ugraph], twice the undirected edge
    count). *)

val reverse : t -> t
(** Every arc flipped. O(1): swaps the two stored directions. *)

val fingerprint : t -> int64
(** Pure content hash of the frozen graph (vertex count, offsets, sorted
    endpoints, weights) chained through {!Dcs_util.Prng.mix64} — the
    finalizer {!Dcs_util.Prng.fingerprint} uses for stream identities.
    Two freezes of equal graphs always agree (rows are canonically
    sorted), so the value works as a cache key: the serving layer's sketch
    cache is keyed by it. O(n + m); call once and keep it. *)

val weight : t -> int -> int -> float
(** Weight of arc (u, v), 0 if absent. Binary search: O(log degree). *)

val mem_edge : t -> int -> int -> bool

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val is_view : t -> n:int -> symmetric:bool -> (int * int * float) array -> bool
(** Whether [t] freezes the graph on [n] vertices whose edges, in
    canonical ascending (u, v) order, are [edges] — weights included, and
    with [symmetric] as the undirected graph (u < v, both arc directions).
    One linear merge per direction. *)

type rows = { off : int array; dst : int array; w : float array }
(** One direction's flat arrays: the arcs of vertex [u] sit at slots
    [off.(u)] .. [off.(u + 1) - 1], endpoint-sorted, with endpoint
    [dst.(i)] and weight [w.(i)]. *)

val out_rows : t -> rows
(** The out-direction arrays themselves, not a copy (O(1)) — for kernels
    that walk rows without a closure per arc. Callers must not mutate
    them. For an {!of_ugraph} view they are also the in-direction. *)

val in_rows : t -> rows
(** The in-direction arrays ([dst] holds sources); same contract as
    {!out_rows}. *)

val iter_out : t -> int -> (int -> float -> unit) -> unit
(** Out-neighbors in increasing vertex order. *)

val iter_in : t -> int -> (int -> float -> unit) -> unit
(** In-neighbors (sources) in increasing vertex order. *)

val total_weight : t -> float
(** Sum of all stored arc weights. *)

val cut_weight : t -> (int -> bool) -> float
(** [cut_weight t mem] is w(S, V\S) for S = \{v | mem v\}, summed in row
    order. *)

val cut_weight_into : t -> (int -> bool) -> float
(** w(V\S, S): total weight entering S. *)

val cut_value : t -> Cut.t -> float
(** {!cut_weight} of a {!Cut.t} side; checks the size. Reads the cut's
    bitmap ({!Cut.unsafe_side}) instead of calling [Cut.mem] once per
    vertex and once per arc, and adds in {!cut_weight}'s order (u
    ascending, then row order), so the value has the same bits. *)

val cut_delta : t -> bool array -> int -> float
(** [cut_delta t side x] is the change to [cut_weight t (fun v -> side.(v))]
    if vertex [x] switched sides — the caller flips [side.(x)] afterwards
    and adds the returned delta to its running cut value. O(degree of x).
    With weights whose sums are exact in floating point (integers, dyadic
    rationals), a chain of deltas reproduces the from-scratch value bit for
    bit. *)

(** {2 Batched kernels}

    Dense sweeps over the flat arrays that evaluate many cuts (or many
    single-vertex flips) per call. They perform exactly the float
    operations of {!cut_weight} / {!cut_delta}, in the same order, so
    their results are byte-identical to the per-call paths — batching only
    strips per-call dispatch, closures and metering from the inner loops.
    These are the kernels the batched trial pool
    ({!Dcs_util.Pool.run_batched}) feeds with per-domain scratch arrays. *)

val cut_many : ?into:float array -> t -> bool array array -> float array
(** [cut_many t sides] evaluates [Array.length sides] cuts in one sweep
    over the out-arc arrays: slot [m] of the result is
    [cut_weight t (fun v -> sides.(m).(v))]. Every side must have length
    [n t]; duplicate sides are fine (each slot is accumulated
    independently). [?into] reuses a caller-owned output array (length at
    least the batch size; only the first batch-size slots are written) so a
    sweep in a hot loop allocates nothing. Counts one [csr.cut_full] per
    cut and one [csr.cut_many_calls] per call. *)

val flip_sweep :
  ?len:int ->
  t ->
  side:bool array ->
  init:float ->
  flips:int array ->
  vals:float array ->
  float
(** [flip_sweep t ~side ~init ~flips ~vals] applies the single-vertex flips
    [flips.(0) .. flips.(len-1)] (default: the whole array) to
    [side] in order, maintaining a running cut value seeded with [init]
    (the caller's [cut_weight] of the starting side): after flip [j] the
    running value is stored in [vals.(j)], and the final value is
    returned. Equivalent to — and bit-identical with — a loop of
    {!cut_delta} + manual flip + accumulate; [side] is mutated in place.
    A vertex may appear many times (each occurrence toggles it again).
    Counts [len] [csr.cut_delta]s and one [csr.flip_sweep_calls].

    Cost. Call a flipped vertex {e cold} when none of its out- or in-arcs
    has an endpoint in the call's flip range \[lo, hi\] (the least and
    greatest flipped ids), and {e hot} otherwise. No neighbour of a cold
    vertex flips during the call, so its row sum is the same at each of
    its flips: the call scans a cold vertex's row once, at its first
    flip, and reuses the sum's bits, O(1) per later flip. A hot vertex
    costs O(degree) at every flip, plus one pass over its endpoints at
    its first. The reuse cache takes O(hi − lo) words for the call. A
    batch drawn from a block that no arc joins to itself — the Lemma 4.4
    walk over one chain's left vertices — is all cold: one row scan per
    distinct vertex, then O(1) per flip. *)

(** {2 Canonical thaw} *)

val to_digraph : t -> Digraph.t
(** Thaw back to a mutable {!Digraph}, inserting arcs in (source asc,
    endpoint asc) row order — a canonical insertion history, so any
    downstream consumer sensitive to construction order sees the same
    digraph whatever history produced [t]. A symmetric {!of_ugraph} view
    thaws to both opposite arcs. *)

(** {2 Symmetric rows} — of an undirected view ({!out_rows} of {!of_ugraph}). *)

val canonical_edges : rows -> (int * int * float) array
(** The undirected edges of symmetric [rows]: the arcs u -> v with
    u < v, in row order — the canonical ascending (u, v) list of
    {!Ugraph.edges}, with the same weights. O(n + m). *)

val quotient_rows : rows -> int array -> int -> rows
(** [quotient_rows rows f k] is G/S for the class map [f] (vertex ->
    class in [\[0, k)], onto): symmetric rows over the classes with one
    arc pair per pair of adjacent classes, its weight the sum of the
    member arcs between them — each sum taken once, in ascending
    (member, endpoint) order of the smaller class, so both directions
    carry the same bits. Arcs inside a class vanish. O(n + m) plus a sort
    of each class's neighbour list. *)
