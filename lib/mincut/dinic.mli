(** Dinic's maximum-flow algorithm (float capacities).

    Used for s–t minimum cuts, for certifying edge connectivity, and for the
    2γ-edge-connectivity case checks of the paper's Figures 3–6 (Lemma 5.5's
    proof enumerates pairs u, v and exhibits 2γ edge-disjoint paths; max-flow
    certifies their existence). *)

type t

val of_digraph : Dcs_graph.Digraph.t -> t
(** Capacities are the edge weights. *)

val of_ugraph : Dcs_graph.Ugraph.t -> t
(** Each undirected edge becomes a pair of opposite arcs of that capacity,
    which models undirected flow exactly. *)

val of_csr : Dcs_graph.Csr.t -> t
(** Residual network straight from a frozen view — the same network
    [of_digraph]/[of_ugraph] build, without re-freezing. A symmetric CSR
    (from {!Dcs_graph.Csr.of_ugraph}) models undirected flow; arc order is
    the view's canonical row order. Build once per graph and reuse it: a
    {!maxflow} call resets the previous flow with one O(m) blit, so a
    batch of connectivity queries pays one construction total. *)

val maxflow : ?limit:float -> t -> s:int -> t:int -> float
(** Resets any previous flow before running. [limit] (default [infinity])
    stops augmenting once that much flow has been routed: the result is
    the exact max-flow when it is below [limit] and exactly [limit]
    otherwise — the cheap form of a capped connectivity query
    (min(λ(s,t), limit)) and of a running-minimum scan. Each phase's BFS
    stops once [t] is labelled, and a run allocates no queue, stack or
    per-vertex state of its own (the network holds them). Raises
    [Invalid_argument] naming the vertex
    (["Dinic.maxflow: vertex 7"]) when [s] or [t] is outside [0, n), and
    when [s = t]. *)

val mincut_side : t -> s:int -> t:int -> float * Dcs_graph.Cut.t
(** Max-flow value together with the source side of a minimum s–t cut
    (vertices reachable from [s] in the final residual network, read off
    the last phase's BFS, which misses [t] and so runs to completion).
    Validates [s] and [t] like {!maxflow}, naming [mincut_side]. *)

val edge_connectivity : Dcs_graph.Ugraph.t -> float
(** Global edge connectivity: min over t <> 0 of maxflow(0, t). Exact for
    weighted undirected graphs; O(n) max-flow runs on {e one} residual
    network (reset between runs, never rebuilt), each capped at the
    running minimum — seeded with the minimum weighted degree, the
    trivial singleton-cut upper bound — so runs on well-connected sinks
    stop early. Requires n >= 2; returns 0 when disconnected (remaining
    runs are skipped once the minimum hits 0). *)

val edge_disjoint_paths : Dcs_graph.Ugraph.t -> s:int -> t:int -> int
(** Max number of edge-disjoint s-t paths in an unweighted view of the graph
    (capacities clamped to 1). Validates [s] and [t] like {!maxflow},
    naming [edge_disjoint_paths]. *)
