(** Karger–Stein recursive contraction on frozen rows.

    A level of r classes contracts twice, independently, to ⌈r/√2⌉ + 1
    classes by Karger's weighted contraction ({!Karger.contract}); each
    result is frozen as the next level's quotient rows
    ({!Dcs_graph.Csr.quotient_rows}), and six or fewer classes go to the
    exact solver ({!Stoer_wagner.mincut_rows}). One recursive run
    succeeds with probability Ω(1/log n) (versus Ω(1/n²) for plain
    contraction), so a handful of runs reliably finds the global minimum
    cut. O(m) memory per level, no n×n matrix. Used as the contraction
    solver of sparsify-then-solve and as an independent randomized check
    against the exact solver in the tests. *)

val run_once : Dcs_util.Prng.t -> Dcs_graph.Ugraph.t -> float * Dcs_graph.Cut.t
(** One recursive contraction; an upper bound on the minimum cut. Requires
    a connected graph with n >= 2. *)

val mincut :
  ?domains:int ->
  ?runs:int ->
  Dcs_util.Prng.t ->
  Dcs_graph.Ugraph.t ->
  float * Dcs_graph.Cut.t
(** Best of [runs] independent runs (default: ceil(log2 n)² + 1), executed
    on the pool ({!Dcs_util.Pool.run_batched}) over [domains] domains
    (default [Pool.domain_count ()]); each worker domain contracts every
    run it executes on one {!Karger.scratch}. Per-run [Prng.split]
    streams keep the result bit-identical for every domain count; a run
    is a pure function of (its stream, the graph's content). *)
