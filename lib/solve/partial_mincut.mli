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

val rho_ugraph : ?c:float -> eps:float -> n:int -> unit -> float
(** Undirected sampling rate c·ln n/ε² (default [c] = 2): sampling by
    local connectivity at this rate preserves all cuts within (1 ± ε)
    w.h.p. (Fung–Hariharan–Harvey–Panigrahi shape — no balance factor
    needed undirected). *)

val sparsify :
  ?c:float ->
  ?rho:float ->
  ?cap:float ->
  ?domains:int ->
  ?flow_budget:int ->
  ?connectivity:Dcs_sketch.Connectivity.t ->
  Dcs_util.Prng.t ->
  eps:float ->
  Dcs_graph.Ugraph.t ->
  Dcs_graph.Ugraph.t * Dcs_sketch.Connectivity.t
(** Connectivity-sampled undirected sparsifier: p = min(1, ρ/λ̂) with λ̂
    from {!Connectivity.estimate_ugraph}, binomial weight resampling,
    one [Prng.split] stream per edge in canonical order (byte-identical
    for every domain count). Returns the sparsifier and the estimates it
    sampled from. [rho] overrides {!rho_ugraph}; [cap] is the estimation
    ceiling (default 16·ρ — it must exceed ρ for anything to be
    dropped, since estimates saturate there and p = ρ/λ̂);
    [connectivity] reuses estimates (must be from this graph). *)

val mincut :
  ?domains:int ->
  ?c:float ->
  ?rho:float ->
  ?cap:float ->
  ?flow_budget:int ->
  ?connectivity:Dcs_sketch.Connectivity.t ->
  ?csr:Dcs_graph.Csr.t ->
  Dcs_util.Prng.t ->
  eps:float ->
  solver:solver ->
  Dcs_graph.Ugraph.t ->
  result
(** Global minimum cut through {!sparsify} + [solver] + certify/repair.
    [csr] reuses an existing frozen view of the input graph for
    certification (it must match [g]); omitted, one is frozen here.
    Note Stoer–Wagner's O(n³) does not shrink with the edge count — pair
    it with this driver for certification value, not speed; the
    contraction solvers (Karger, Karger–Stein) are the fast path. *)

val st_mincut :
  ?c:float ->
  ?rho:float ->
  ?cap:float ->
  ?domains:int ->
  ?flow_budget:int ->
  ?connectivity:Dcs_sketch.Connectivity.t ->
  Dcs_util.Prng.t ->
  eps:float ->
  beta:float ->
  s:int ->
  t:int ->
  Dcs_graph.Digraph.t ->
  result
(** Directed s–t minimum cut: Dinic on a
    {!Directed_sparsifier.connectivity_sparsify} sparsifier (the CLNPSQ
    use case), certified against the original digraph's frozen view and
    repaired to the exact directed weight; dense Dinic on violation.
    [beta] is the graph's cut-balance promise, as everywhere in the
    directed samplers. *)
