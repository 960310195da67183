(** Gomory–Hu tree (Gusfield's variant): a weighted tree on the same vertex
    set such that for every pair (u, v) the minimum u–v cut value equals
    the smallest edge weight on the tree path between them, and the
    corresponding tree edge induces a minimum u–v cut.

    Built with n-1 max-flow computations. Gives all-pairs minimum cuts at
    once — the structural view of cut space that sketches compress — and an
    independent oracle for the test suite (global min cut = lightest tree
    edge). *)

type t

val build : Dcs_graph.Ugraph.t -> t
(** Requires a connected graph with n >= 2. *)

val tree_edges : t -> (int * int * float) list
(** The n-1 tree edges (child, parent, flow value). *)

val min_cut_value : t -> int -> int -> float
(** Minimum u–v cut value, O(n) per query. *)

val min_cut : t -> int -> int -> float * Dcs_graph.Cut.t
(** Value and witness side (the side containing [u]) of a minimum u–v cut:
    the partition induced by removing the lightest tree-path edge. *)

val global_min_cut : t -> float * Dcs_graph.Cut.t
(** Lightest tree edge and its induced partition. *)
