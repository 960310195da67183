(** Sparsify-then-solve minimum cuts with certification and repair.

    The partial-sparsification recipe of Cen–Li–Nanongkai et al.
    ({i Minimum Cuts in Directed Graphs via Partial Sparsification}): run
    the solver on a connectivity-sampled sparsifier H — edge count
    governed by the sampling rate ρ, not the source density — then
    {e certify} the returned cut against the original graph: its exact
    weight is recomputed over the frozen CSR view, and the sparse answer
    is accepted only if H's value for that cut is within the
    sparsifier's ε promise. On acceptance the reported value is the
    {e exact} weight (repair); on violation, or when sampling left H
    unsolvable (e.g. disconnected), the dense solver reruns on the
    original graph — the fast path can make the answer slower, never
    wrong. Accepted answers are (1+ε)-approximate minimum cuts with the
    sparsifier's success probability. Metered as [partial.solves],
    [partial.certified], [partial.fallbacks]. *)

type solver =
  | Karger of { trials : int }
  | Karger_stein of { runs : int option }  (** [None]: the solver default *)
  | Stoer_wagner

type stats = {
  m_full : int;  (** edges of the input graph *)
  m_sparse : int;  (** edges of the sparsifier actually solved *)
  conn : Dcs_sketch.Connectivity.stats;  (** how λ̂ tiers resolved (prefilters/flows) *)
  sparse_value : float;  (** the cut's value in H ([nan] if H unsolvable) *)
  certified : bool;
  fell_back : bool;
}

type result = { value : float; cut : Dcs_graph.Cut.t; stats : stats }
(** [value] is always an exact cut weight of the {e original} graph for
    [cut] — repaired on the sparse path, native on the dense path. *)

val mincut :
  ?domains:int ->
  ?cap:float ->
  ?flow_budget:int ->
  ?connectivity:Dcs_sketch.Connectivity.t ->
  ?csr:Dcs_graph.Csr.t ->
  rho:float ->
  Dcs_util.Prng.t ->
  eps:float ->
  solver:solver ->
  Dcs_graph.Ugraph.t ->
  result
(** Global minimum cut: [solver] on a connectivity-sampled undirected
    sparsifier, then certify/repair. The sparsifier is
    {!Dcs_sketch.Connectivity.sample} at rate [rho] over
    {!Dcs_sketch.Connectivity.estimate_ugraph}'s λ̂ (byte-identical for
    every domain count). [cap] is the estimation ceiling (default 16·ρ —
    it must exceed ρ for anything to be dropped, since estimates saturate
    there and p = ρ/λ̂); [connectivity] reuses estimates of this graph
    ([cap] is then ignored; estimates of other edges, weights or vertex
    count, or of a digraph, raise [Invalid_argument "Partial_mincut:
    connectivity does not describe the graph"] before any work). [rho]
    and [cap] must be positive: anything else, NaN included, raises
    [Invalid_argument] before estimation runs. [eps] is the certification
    tolerance, in (0, 1). [csr] is a frozen view of the input graph for
    certification; omitted, certification reads the view the estimates
    carry ({!Dcs_sketch.Connectivity.view}: the estimator's own freeze of
    the input, or that of a caller's checked estimates), so the input is
    frozen once. A view of other arcs or weights raises [Invalid_argument
    "Partial_mincut: csr does not describe the graph"] after estimation
    and before solving: it is merged against the estimates' edge list,
    the caller's or the ones just computed. A sparsifier the solver
    rejects as disconnected — directly, or from a pooled trial as
    {!Dcs_util.Pool.Task_failed} — falls back to the dense solve. *)

val st_mincut :
  ?cap:float ->
  ?flow_budget:int ->
  rho:float ->
  Dcs_util.Prng.t ->
  eps:float ->
  beta:float ->
  s:int ->
  t:int ->
  Dcs_graph.Digraph.t ->
  result
(** Directed s–t minimum cut: Dinic on a
    {!Dcs_sketch.Connectivity.sample} sparsifier over
    {!Dcs_sketch.Connectivity.estimate_digraph}'s λ̂ (the CLNPSQ use
    case), certified against the original digraph's frozen view and
    repaired to the exact directed weight; dense Dinic on violation.
    [beta] is the graph's cut-balance promise, as everywhere in the
    directed samplers; [rho], [cap] and [eps] are checked as in
    {!mincut}. *)
