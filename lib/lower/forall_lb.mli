(** The Section 4 lower-bound construction (Theorem 1.2): encoding an h-fold
    Gap-Hamming instance into a (2β)-balanced digraph so that any (1 ± c₂ε)
    for-all cut sketch decides the planted Hamming-distance gap.

    Structure: blocks of k = β/ε² vertices; within a consecutive pair
    (V_p, V_{p+1}), the left nodes are ℓ_1..ℓ_k and the right block splits
    into β clusters R_1..R_β of size 1/ε². The string s_{i,j} ∈ {0,1}^{1/ε²}
    (Hamming weight 1/(2ε²)) sets the forward weight of (ℓ_i, v-th of R_j)
    to s_{i,j}(v) + 1 ∈ {1,2}; every backward edge has weight 1/β.

    Bob holds (i0, j0) and a weight-1/(2ε²) string t. Writing T ⊂ R_{j0}
    for t's support, he approximates w(U, T) for half-size subsets U ⊂ V_p
    by querying S = U ∪ (V_{p+1}\T) ∪ V_{p+2} ∪ … and subtracting the fixed
    backward weight; the subset Q maximizing the estimate captures >= 4/5
    of L_high (Lemma 4.4), and Bob answers "Δ small" iff ℓ_{i0} ∈ Q.

    Two decoders are provided: the literal subset enumeration (any cut
    oracle; exponential in k, for small instances) and a polynomial top-k
    variant that is exact for every sketch whose cut estimates are additive
    over left vertices — in particular every graph-valued sketch (the
    estimate of w(U,T) on a sparsifier is Σ_{ℓ∈U} w̃(ℓ,T), so the argmax
    over half-size subsets is attained by the top k/2 per-vertex scores). *)

type params = {
  n : int;            (** total vertices; multiple of block k = β·(1/ε²) *)
  beta : int;         (** balance parameter, >= 1 *)
  inv_eps_sq : int;   (** d = 1/ε²; a positive multiple of 4 *)
}

val make_params : beta:int -> inv_eps_sq:int -> int -> params
(** [make_params ~beta ~inv_eps_sq n]. The Gap-Hamming gap constant (the
    paper's c) is 0.25. *)

val layout : params -> Layout.t
val eps : params -> float
val block_size : params -> int
(** k = β/ε². *)

val strings_per_pair : params -> int
(** k·β = β²/ε². *)

val total_strings : params -> int
(** h = (ℓ-1)·β²/ε². *)

val bits_capacity : params -> int
(** h·(1/ε²) raw input bits — the Ω(nβ/ε²) quantity. *)

val balance_upper_bound : params -> float
(** 2β (edgewise certificate). *)

type address = {
  pair : int;  (** chain pair p *)
  i : int;     (** left node index in [k] *)
  j : int;     (** right cluster index in [β] *)
}

val address_of_string_index : params -> int -> address
val string_index_of_address : params -> address -> int

type instance = {
  params : params;
  gh : Dcs_comm.Gap_hamming.instance;
  graph : Dcs_graph.Digraph.t;
  target : address;   (** where Bob's planted string lives *)
}

val encode : params -> Dcs_comm.Gap_hamming.instance -> instance
(** Deterministic given the Gap-Hamming instance; the instance must have
    [total_strings] strings of length [inv_eps_sq]. *)

val random_instance : Dcs_util.Prng.t -> params -> instance

type decision = Delta_high | Delta_low

val correct_decision : instance -> decision

val query_cut : params -> address -> u_mem:(int -> bool) -> t:Dcs_comm.Bitstring.t -> Dcs_graph.Cut.t
(** S = U ∪ (V_{p+1}\T) ∪ V_{p+2} ∪ …, where U ⊂ V_p is given by the
    membership predicate over left offsets 0..k-1. *)

val fixed_backward_weight : params -> address -> u_size:int -> float
(** Closed-form backward crossing weight of [query_cut] for |U| = u_size. *)

val estimate_w_ut :
  params -> query:(Dcs_graph.Cut.t -> float) -> address ->
  u_mem:(int -> bool) -> t:Dcs_comm.Bitstring.t -> float
(** One Lemma 4.2 probe: query(S_U) minus the fixed backward weight. *)

val decode_single_query :
  params -> query:(Dcs_graph.Cut.t -> float) -> address ->
  t:Dcs_comm.Bitstring.t -> decision
(** The one-query strawman the paper rules out (Section 4's "Bob can only
    get a (1±ε)-approximation … with this much error Bob cannot
    distinguish"): estimate w(\{ℓ_i\}, T) directly and threshold. Works
    only when the sketch error is far below ε; included to reproduce that
    contrast experimentally. *)

type decode_scratch
(** Reusable decoder buffers (query side array + the flip/visit blocks
    fed to [Csr.flip_sweep]): build one per worker domain with
    {!decode_scratch} and pass it to every decode of the same [params].
    Contents carry no state between decodes. *)

val decode_scratch : params -> decode_scratch

val enumerate_guard : int
(** 28 — largest block size k the graph-backed enumeration accepts
    (C(28,14) ≈ 40M incremental steps; subsets are tracked as int
    bitmasks over the k left offsets). *)

val enumerate_query_guard : int
(** 20 — largest k the generic one-query-per-subset enumeration accepts. *)

val decode_enumerate_frozen :
  ?scratch:decode_scratch ->
  params -> Dcs_graph.Csr.t -> address ->
  t:Dcs_comm.Bitstring.t -> decision
(** Lemma 4.4 enumeration over a pre-frozen sketch graph: walks the
    C(k, k/2) half-size subsets incrementally, recording membership
    toggles and visited subsets into [scratch] blocks and flushing them
    through the batched {!Dcs_graph.Csr.flip_sweep} kernel — the same
    float operations in the same order as a per-flip [cut_delta] loop,
    so decisions are byte-identical to it. No arc joins two left
    vertices of one chain, so every flip of the walk is cold in the
    kernel's sense: each left vertex's row is summed once per flushed
    block, and a flip costs O(1) after that. Guarded to k <=
    {!enumerate_guard}. [scratch] (default: fresh) must come from
    {!decode_scratch} on the same [params]. *)

val decode_enumerate :
  ?graph:Dcs_graph.Digraph.t ->
  ?scratch:decode_scratch ->
  params -> query:(Dcs_graph.Cut.t -> float) -> address ->
  t:Dcs_comm.Bitstring.t -> decision
(** Literal Lemma 4.4: enumerate all C(k, k/2) half-size subsets, keeping
    the argmax estimate.

    Without [graph], each subset costs one full [query]; guarded to
    k <= {!enumerate_query_guard}. With [graph] — the sketch's own graph,
    as exposed by graph-valued sketches ([query] must equal its exact cut
    value) — the graph is frozen into a {!Dcs_graph.Csr} and decoding is
    {!decode_enumerate_frozen}, raising the guard to
    k <= {!enumerate_guard} (on a 2-vCPU host, one decode takes ~0.25 s
    at k = 24 and ~3 s at k = 28).
    Both paths visit subsets in the same order with the same strict->
    tie-break, and agree bit for bit whenever cut sums are exact in
    floating point (the encoder's weights for β a power of two). *)

val iter_combinations_incremental :
  n:int -> k:int -> flip:(int -> unit) -> visit:(bool array -> unit) -> unit
(** The subset walk behind [decode_enumerate]: visits every size-[k] subset
    of 0..n-1 (same order as the plain enumeration), firing [flip o] after
    each membership toggle of element [o]. Exposed for the representation
    benchmark and the incremental-cut equivalence tests. *)

val decode_topk :
  params -> sketch_graph:Dcs_graph.Digraph.t -> address ->
  t:Dcs_comm.Bitstring.t -> decision
(** Polynomial decoder for additive (graph-valued) sketches. *)

val topk_q_set :
  params -> sketch_graph:Dcs_graph.Digraph.t -> address ->
  t:Dcs_comm.Bitstring.t -> bool array
(** The Q ⊂ V_p chosen by the top-k decoder (exposed for the Lemma 4.3/4.4
    statistics experiment). *)

val lemma43_stats : instance -> int * int
(** (|L_high|, |L_low|) for the planted pair's T — the population the
    Lemma 4.3 concentration statement is about. *)

val codec_sketch : instance -> Dcs_sketch.Sketch.t
(** Instance-optimal matching sketch: h/ε² bits (the raw strings). *)

val codec_bits : params -> int

type trial_stats = {
  trials : int;
  correct : int;
  success_rate : float;
  mean_sketch_bits : float;
}

val run_trials :
  ?domains:int ->
  Dcs_util.Prng.t ->
  params ->
  sketch_of:(Dcs_util.Prng.t -> instance -> Dcs_sketch.Sketch.t) ->
  decoder:[ `Enumerate | `Topk | `Single ] ->
  trials:int ->
  trial_stats
(** Fresh instance per trial; decodes the planted pair. [`Topk] requires
    the sketches to be graph-valued. Trials run on the pool
    ({!Dcs_util.Pool.run_batched}) over [domains] domains (default
    [Pool.domain_count ()]), one reusable {!decode_scratch} per domain;
    per-trial [Prng.split] streams keep the stats bit-identical for every
    domain count. *)
