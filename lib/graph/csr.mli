(** Frozen compressed-sparse-row graphs: the hot-path representation.

    A [Csr.t] is an immutable snapshot of a {!Digraph} or {!Ugraph} as flat
    offset/endpoint/weight arrays, in both arc directions (one [float array]
    of weights per direction — with [flat_float_array], the compiler
    default, already an unboxed buffer the GC never scans). Freezing costs
    one pass over the edges plus a per-row sort; afterwards cut evaluation
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
(** Freeze a directed graph. O(n + m log m). *)

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
(** {!cut_weight} of a {!Cut.t} side; checks the size. *)

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
  ?off:int ->
  ?len:int ->
  t ->
  side:bool array ->
  init:float ->
  flips:int array ->
  vals:float array ->
  float
(** [flip_sweep t ~side ~init ~flips ~vals] applies the single-vertex flips
    [flips.(off) .. flips.(off+len-1)] (default: the whole array) to
    [side] in order, maintaining a running cut value seeded with [init]
    (the caller's [cut_weight] of the starting side): after each flip the
    running value is stored in the corresponding slot of [vals]
    (0-indexed from the start of this call), and the final value is
    returned. Equivalent to — and bit-identical with — a loop of
    {!cut_delta} + manual flip + accumulate; [side] is mutated in place.
    A vertex may appear many times (each occurrence toggles it again).
    Counts [len] [csr.cut_delta]s and one [csr.flip_sweep_calls]. *)

(** {2 Canonical thaw and delta overlays}

    The streaming layer's middle ground between "re-freeze on every edge
    mutation" (O(n + m) each) and "never freeze" (losing the canonical
    hot-path arrays): a {!delta} overlays signed weight adjustments on a
    frozen base, answers cuts at one base scan plus O(overlay) extra, and
    is merged back into a fresh frozen view by {!compact} once it grows
    past the caller's threshold. All overlay float work happens in
    ascending arc order, so every value is a pure function of content —
    two overlays reaching the same graph by different mutation histories
    agree bit for bit whenever the weights sum exactly (integers, dyadic
    rationals), and [compact] then reproduces the fingerprint of a
    from-scratch freeze. Metered as [csr.delta_cuts] / [csr.compactions]. *)

val to_digraph : t -> Digraph.t
(** Thaw back to a mutable {!Digraph}, inserting arcs in (source asc,
    endpoint asc) row order — a canonical insertion history, so any
    downstream consumer sensitive to construction order sees the same
    digraph whatever history produced [t]. A symmetric {!of_ugraph} view
    thaws to both opposite arcs. *)

type delta
(** A frozen base plus an unfrozen overlay of signed weight adjustments. *)

val delta_of : t -> delta
(** Empty overlay on [t]. The base is shared, not copied. *)

val delta_base : delta -> t
val delta_pairs : delta -> int
(** Distinct arcs currently adjusted — the overlay's memory footprint and
    the quantity compaction thresholds watch. Adjustments that cancel back
    to exactly 0 leave the overlay (so insert-then-delete churn does not
    grow it). *)

val delta_add : delta -> int -> int -> float -> unit
(** [delta_add d u v dw] accumulates [dw] onto arc (u, v) (negative to
    delete weight). Bounds-checked; self-loops rejected. The overlay may
    hold transiently negative adjustments (a deletion of a base arc); only
    {!compact} insists the merged weights are nonnegative. *)

val delta_weight : delta -> int -> int -> float
(** Base weight plus adjustment. *)

val delta_cut_weight : delta -> (int -> bool) -> float
(** {!cut_weight} of the adjusted graph: base scan in row order plus
    overlay corrections in ascending arc order. *)

val delta_cut_value : delta -> Cut.t -> float
(** {!delta_cut_weight} of a {!Cut.t} side; checks the size. *)

val compact : delta -> t
(** Merge the overlay into a fresh frozen view (thaw base canonically,
    apply adjustments in ascending arc order, re-freeze). Raises
    [Invalid_argument] if any arc merges to a negative weight — the
    overlay was promising deletions the base never had. *)
