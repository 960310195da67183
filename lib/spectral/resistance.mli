(** Effective resistances.

    R(u,v) = (e_u - e_v)ᵀ L⁺ (e_u - e_v): the electrical resistance between
    u and v when edges are conductors of conductance w_e. Effective
    resistance is the importance measure behind spectral sparsification
    (SS11) — the spectral analogue of the inverse edge strengths used by
    the cut sparsifiers in this library. Foster's theorem
    (Σ_e w_e·R_e = n - 1 on a connected graph) gives the expected sample
    size and doubles as a strong correctness test.

    Every entry point refuses a disconnected graph with [Invalid_argument]
    naming itself, before any Laplacian is built: conjugate gradients on
    a disconnected Laplacian do not converge to a resistance. *)

val pair : Dcs_graph.Ugraph.t -> int -> int -> float
(** One CG solve. [Invalid_argument] unless u and v are distinct vertices
    of a connected graph. *)

val all_edges : Dcs_graph.Ugraph.t -> (int * int, float) Hashtbl.t
(** R_e for every edge (key has u < v), filled in the canonical order of
    {!Dcs_graph.Ugraph.edges}; n CG solves via per-vertex potentials, in
    O(n + m) memory: each solve's column is dropped once its diagonal
    entry and its entries at the vertex's edges are kept. *)

val foster_sum : Dcs_graph.Ugraph.t -> float
(** Σ_{e} w_e·R_e over {!Dcs_graph.Ugraph.edges} — n - 1 on a connected
    graph. *)
