(** Karger–Stein recursive contraction.

    One recursive run succeeds with probability Ω(1/log n) (versus Ω(1/n²)
    for plain contraction), so a handful of runs reliably finds the global
    minimum cut. Used by the distributed coordinator when candidate
    enumeration needs to be cheap on large merged sparsifiers, and as an
    independent randomized check against Stoer–Wagner in the tests. *)

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
    (default [Pool.domain_count ()]); each worker domain builds the dense
    base quotient once and recurses off it for every run it executes.
    Per-run [Prng.split] streams keep the result bit-identical for every
    domain count. *)
