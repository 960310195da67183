(** Batched local edge-connectivity estimation for importance sampling.

    For every edge (u, v) of a graph, compute a sound lower bound
    λ̂(u,v) <= λ(u,v), sharp up to a cap: λ̂ = min(λ, cap) whenever the
    exact tier runs. Connectivity sampling (CCPS21: p = min(1, ρ/λ))
    tolerates any underestimate — it only oversamples — and never needs λ
    beyond the sampling rate ρ, so estimation is a chain of increasingly
    expensive, always-sound lower bounds that stops at the first one
    reaching [cap]:

    + on undirected graphs with at least two vertices of weighted degree
      >= [cap] (the input alone decides: λ(u,v) <= min(d(u), d(v))),
      maximum-adjacency contraction ({!Dcs_mincut.Max_adjacency}):
      repeated linear MA passes merge every pair whose attachment q(e)
      reaches [cap], and an edge inside a class resolves to [cap]; when
      it merged something, the tiers below run only on the other edges
      and compute no strength rounds of their own;
    + the edge's own weight;
    + the Nagamochi–Ibaraki {!Strength} index (divided by (1+β) on
      β-balanced digraphs) — or, after a contraction, the larger of
      q(e) and the index of a caller's decomposition;
    + a common-neighbour bound (direct edge + one edge-disjoint two-hop
      path per shared neighbour), gathered over v's row against a
      scatter of u's and stopped once it reaches [cap];
    + exact Dinic max-flow capped at [cap] — batched over
      {!Dcs_util.Pool.run_batched} with one reusable residual network per
      worker domain (built once, reset between queries), run on the
      [flow_budget] weakest bounds (ties broken by edge index; a partial
      selection, not a full sort), and, for undirected graphs, run on the
      contracted graph G/S between the endpoints' classes after a
      contraction (min(cap, λ) is the same there), else on the
      {!Strength.certificate} (O(cap·n) edges) — never on the full
      graph.

    {!sample} turns the estimates into CCPS21's sample, p = min(1, ρ/λ̂).
    Choose [cap] {e well above} ρ: estimates saturate at the cap, so
    [cap = ρ] pins every keep probability at 1 and nothing is dropped;
    keep probabilities bottom out at ρ/cap ([Partial_mincut] defaults
    to 16·ρ).

    Estimates are a pure function of graph content (canonical edge order,
    pure per-index flow tasks): byte-identical for every domain count.
    Strength/certificate tiers count rounded integer multiplicities, so
    on graphs with any non-integer weight — 1.55 counts as 2, not only
    sub-unit weights — tiers 2–4 can overshoot the (un-rounded)
    connectivity by the rounding wherever an NI decomposition enters
    them: always when the maximum-adjacency tier is off or merged
    nothing, and after a contraction through a caller's [strengths]
    (q(e) sums the weights themselves). With integer weights — every
    generator in this repo — all tiers are exact lower bounds. Metered as [conn.edges], [conn.by_adjacency],
    [conn.by_weight], [conn.by_strength], [conn.by_triangle],
    [conn.flows], [conn.budgeted] and [conn.adjacency_passes]; the
    contraction runs inside a [conn.adjacency] {!Dcs_obs_core.Trace}
    span. *)

type stats = {
  edges : int;  (** edges estimated *)
  by_adjacency : int;  (** inside a class of the maximum-adjacency tier *)
  by_weight : int;  (** resolved by the weight tier (w >= cap) *)
  by_strength : int;  (** resolved by the NI strength tier *)
  by_triangle : int;  (** resolved by the common-neighbour tier *)
  flows : int;  (** exact capped max-flows run *)
  budgeted : int;  (** flow budget exhausted; kept the cheap bound *)
  passes : int;  (** maximum-adjacency passes run (0: tier off) *)
}

type t

val estimate_ugraph :
  ?domains:int ->
  ?flow_budget:int ->
  ?strengths:Strength.t ->
  cap:float ->
  Dcs_graph.Ugraph.t ->
  t
(** λ̂ for every undirected edge (u < v). [strengths] reuses a
    precomputed NI decomposition: when the maximum-adjacency tier merged
    nothing, its {!Strength.certificate} is the flow graph, so estimates
    are sharp at [cap] when it ran for at least [cap] rounds — the
    default computes exactly that many; after a contraction its index
    only raises tier 2, and flows on G/S are sharp at [cap]. [flow_budget]
    (default unlimited) caps the exact tier, which runs on [domains]
    domains (default [Pool.domain_count ()], i.e. [DCS_DOMAINS]). [cap] must be positive
    (NaN is rejected before any work); pass [infinity] for uncapped
    exact local connectivities (the cheap tiers then never fire). Raises
    [Invalid_argument]
    ["Connectivity.estimate_ugraph: strengths decompose a different graph"]
    when [strengths]' edge list differs from [g]'s — its indices would
    not bound [g]'s connectivities. Only endpoints are compared: a
    decomposition of a graph with [g]'s edges but other weights
    passes. *)

val estimate_digraph :
  ?flow_budget:int ->
  ?csr:Dcs_graph.Csr.t ->
  ?strengths:Strength.t ->
  ?beta:float ->
  cap:float ->
  Dcs_graph.Digraph.t ->
  t
(** λ̂ for every directed edge, flows on the digraph itself ([csr]
    reuses a frozen view of [g]; a view with other arcs or weights raises
    [Invalid_argument]
    ["Connectivity.estimate_digraph: csr is a view of a different graph"]
    before any work). [strengths] is an NI decomposition of
    the {e undirected projection}; its index prefilters through the
    (1+β) balance factor (default [beta] = 1), which is sound exactly
    when [g] is β-balanced — the caller owns that promise, as in
    {!Directed_sparsifier}. Raises [Invalid_argument]
    ["Connectivity.estimate_digraph: strengths decompose a different graph"]
    unless every arc's endpoint pair is in [strengths] and the pair
    counts agree (endpoints only, as for {!estimate_ugraph}). The exact
    tier runs on [Pool.domain_count ()] domains ([DCS_DOMAINS]). *)

val edges : t -> (int * int * float) array
(** The estimated edges with their original weights, in the canonical
    ascending (u, v) order of {!Dcs_graph.Ugraph.edges} /
    {!Dcs_graph.Digraph.edges}. Callers must not mutate. *)

val lambda_at : t -> int -> float
(** Estimate for {!edges}[(i)]; in [(0, cap]]. *)

val iter : t -> (int -> int -> float -> float -> unit) -> unit
(** [iter t f] calls [f u v w lambda] in canonical edge order. *)

val stats : t -> stats

val view : t -> Dcs_graph.Csr.t
(** The frozen view the estimator ran on — the symmetric view of the
    estimated graph for {!estimate_ugraph}, the (caller's or its own)
    directed view for {!estimate_digraph} — so a consumer that evaluates
    cuts of that graph needs no second freeze. Callers must not
    mutate. *)

val sample :
  t -> rho:float -> Dcs_util.Prng.t -> (int -> int -> float -> unit) -> unit
(** Connectivity sampling (CCPS21's compress) over the estimates:
    [sample t ~rho rng f] keeps each edge with p = min(1, ρ/λ̂) (capping
    only raises p, so any underestimate stays sound), resamples its
    weight with {!Importance.binomial_keep}, and calls [f u v w'] once
    per kept edge, in canonical order. Edge i draws from
    [Prng.split master i], where [master] is one {!Dcs_util.Prng.fork} of
    [rng], so the sample is a pure function of (seed, graph content).
    Build a sparsifier with [Ugraph.add_edge h] or [Digraph.add_edge h].
    Raises [Invalid_argument] unless [rho > 0] (NaN included). *)

val expected_kept : t -> rho:float -> float
(** Exact expected number of edges {!sample} keeps at rate [rho];
    monotone in [rho] (bisect it to match a budget). Same [rho] check as
    {!sample}. *)
