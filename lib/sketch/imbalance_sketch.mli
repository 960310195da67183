(** For-each directed cut sketching by the imbalance decomposition.

    For any digraph and any cut S,

      w(S, V\S) = ( u(S) + Δ(S) ) / 2,

    where u(S) is the cut value of the undirected projection (forward +
    backward weight per pair) and Δ(S) = Σ_{v∈S} (out_w(v) - in_w(v)) is
    the *imbalance* of S — exactly additive over vertices, because internal
    edges cancel. So a directed for-each sketch needs only (a) the n vertex
    imbalances, stored exactly, and (b) an undirected for-each sketch of
    the projection. This decomposition is the structural reason balanced
    digraphs are sketchable at all (EMPS16/IT18/CCPS21): in a β-balanced
    graph u(S) <= (1+β)·w(S,V\S), so a (1 ± ε/(1+β)) undirected sketch
    yields a (1 ± ε) directed one.

    Two limiting cases worth noting: Eulerian graphs (β = 1) have zero
    imbalance everywhere — directed sketching reduces *exactly* to
    undirected sketching; and as β grows the undirected accuracy must
    tighten linearly, which is why the lower bounds of Theorems 1.1/1.2
    carry β factors. *)

val create :
  ?c:float -> Dcs_util.Prng.t -> eps:float -> beta:float -> Dcs_graph.Digraph.t -> Sketch.t
(** (1 ± ε) for-each sketch of a β-balanced digraph: exact imbalances plus
    a strength-sampled projection sketch at accuracy ε/(1+β). Size =
    64·n bits for the imbalances + the projection sample. The projection
    is sampled in the canonical order of {!Dcs_graph.Ugraph.edges}, so
    the sketch is a pure function of (seed, graph content). *)

val imbalances : Dcs_graph.Digraph.t -> float array
(** out-weight minus in-weight per vertex (Δ of a singleton). *)

val delta : float array -> Dcs_graph.Cut.t -> float
(** Δ(S) = Σ_{v∈S} imbalance(v). *)

val exact_decomposition : Dcs_graph.Digraph.t -> Dcs_graph.Cut.t -> float
(** (u(S) + Δ(S)) / 2 computed exactly — equals w(S, V\S) identically; used
    by tests and as the reference the sketch approximates. *)
