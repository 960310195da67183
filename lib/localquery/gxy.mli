(** The Section 5.2 graph construction G_{x,y}.

    Given x, y ∈ {0,1}^N with N = ℓ², the vertex set splits into four
    layers A, A', B, B' of ℓ vertices each. For every index (i, j):

    - if x_{i,j} = y_{i,j} = 1 (an intersection), add the crossing edges
      (a_i, b'_j) and (b_i, a'_j);
    - otherwise add the parallel edges (a_i, a'_j) and (b_i, b'_j).

    Every vertex has degree exactly ℓ, the graph has 2N edges, and
    Lemma 5.5 gives MINCUT(G_{x,y}) = 2·INT(x, y) whenever √N >= 3·INT(x,y)
    (the witness cut is (A ∪ A', B ∪ B')). Figure 2 of the paper is
    [build] on x = 000000100, y = 100010100. *)

type vertex_class = A | A' | B | B'

val build : x:Dcs_comm.Bitstring.t -> y:Dcs_comm.Bitstring.t -> Dcs_graph.Ugraph.t
(** Requires equal lengths that are perfect squares. *)

val side : n:int -> int
(** ℓ = √N given the bit-string length. *)

val classify : side:int -> int -> vertex_class * int
(** Vertex id → (layer, index within layer). Layout: A = 0..ℓ-1,
    A' = ℓ..2ℓ-1, B = 2ℓ..3ℓ-1, B' = 3ℓ..4ℓ-1. *)

val vertex : side:int -> vertex_class -> int -> int

val witness_cut : side:int -> Dcs_graph.Cut.t
(** The cut (A ∪ A') versus (B ∪ B') of size 2·INT. *)

val predicted_mincut : x:Dcs_comm.Bitstring.t -> y:Dcs_comm.Bitstring.t -> int option
(** [Some (2·INT)] when the Lemma 5.5 hypothesis √N >= 3·INT holds. *)
