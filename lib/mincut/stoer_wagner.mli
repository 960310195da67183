(** Exact global minimum cut of a weighted undirected graph — the
    reference for Lemma 5.5, VERIFY-GUESS and every ground-truth cut in
    the benchmarks — by Nagamochi–Ibaraki contraction on the frozen view.

    Each pass bounds the answer by the lightest class's weighted degree,
    runs one maximum-adjacency order ({!Max_adjacency.scan}) and merges
    ({!Max_adjacency.merge}) every pair whose attachment reaches the
    lightest bound so far, plus the order's last two vertices (Stoer and
    Wagner's step); it stops at two classes or a zero bound.
    Deterministic; O(passes · m log n) time with at most n − 1 passes (a
    cycle needs them all, random graphs a handful) and O(n + m) memory. *)

val mincut : Dcs_graph.Ugraph.t -> float * Dcs_graph.Cut.t
(** The minimum cut's value and a witness side: the members of the
    class whose degree set the value. Raises [Invalid_argument] below 2
    vertices. A disconnected graph is answered exactly, 0, after the
    first pass whose lightest class has no edge out — a component, or a
    union of them. *)

val mincut_value : Dcs_graph.Ugraph.t -> float

val mincut_rows : Dcs_graph.Csr.rows -> float * bool array
(** {!mincut} of the graph whose symmetric rows ({!Dcs_graph.Csr.out_rows}
    of an undirected view, or {!Dcs_graph.Csr.quotient_rows}) are given,
    with the side as a membership array over the rows' vertices. *)
