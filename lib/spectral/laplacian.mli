(** Graph Laplacians (dense) and their quadratic forms.

    Cut values are a special case of Laplacian quadratic forms
    (x = indicator of S gives xᵀLx = undirected cut value), which is how
    spectral sparsification generalizes cut sparsification — the stronger
    notion the paper's related work (ST11, SS11, ACK+16) studies. This
    module provides the dense Laplacian, its quadratic form, a conjugate-
    gradient pseudoinverse solve restricted to the space orthogonal to the
    all-ones vector, and matrix–vector application. Dense representation:
    intended for the n <= a-few-thousand experiment scale. *)

type t

val of_ugraph : Dcs_graph.Ugraph.t -> t
val n : t -> int

val apply : t -> float array -> float array
(** L·x. *)

val quadratic_form : t -> float array -> float
(** xᵀLx = Σ_{(u,v)∈E} w_uv (x_u - x_v)². *)

val cut_value : t -> Dcs_graph.Cut.t -> float
(** Quadratic form of the indicator vector: the undirected cut value. *)

val solve : t -> float array -> float array
(** [solve l b] returns the minimum-norm x with L·x = b, for b orthogonal
    to the all-ones vector (the component along 1 is projected away first).
    Conjugate gradients to relative residual 1e-9, at most 10·n
    iterations; requires a connected graph for convergence. *)

val entry : t -> int -> int -> float
