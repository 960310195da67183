(** Graph Laplacians and their quadratic forms.

    Cut values are a special case of Laplacian quadratic forms
    (x = indicator of S gives xᵀLx = undirected cut value), which is how
    spectral sparsification generalizes cut sparsification — the stronger
    notion the paper's related work (ST11, SS11, ACK+16) studies. This
    module provides the Laplacian, its quadratic form, a conjugate-
    gradient pseudoinverse solve restricted to the space orthogonal to the
    all-ones vector, and matrix–vector application. Sparse representation
    in O(n + m) words: the graph's frozen symmetric {!Dcs_graph.Csr} rows
    (the off-diagonal entries) plus the diagonal. Each product sums row i
    in ascending column order with the diagonal term at column i, the
    order — and so the bits — of the dense row product. *)

type t

val of_ugraph : Dcs_graph.Ugraph.t -> t

val apply : t -> float array -> float array
(** L·x. *)

val quadratic_form : t -> float array -> float
(** xᵀLx = Σ_{(u,v)∈E} w_uv (x_u - x_v)². *)

val solve : t -> float array -> float array
(** [solve l b] returns the minimum-norm x with L·x = b, for b orthogonal
    to the all-ones vector (the component along 1 is projected away first).
    Conjugate gradients to relative residual 1e-9, at most 10·n
    iterations; requires a connected graph for convergence. *)

val entry : t -> int -> int -> float
(** L_ij: the weighted degree on the diagonal, −w_ij off it (0 for a
    non-edge); O(log degree). *)
