(** Karger's randomized contraction for global minimum cut, plus the
    near-minimum-cut enumeration the distributed pipeline needs.

    The paper's distributed-min-cut motivation (Section 1) relies on the
    fact that at most n^O(C) cuts are within a factor C of the minimum; the
    coordinator finds them by repeated contraction and then refines with
    for-each queries. [candidate_cuts] implements that enumeration. *)

val run_once : Dcs_util.Prng.t -> Dcs_graph.Ugraph.t -> float * Dcs_graph.Cut.t
(** One contraction run: contract weighted-random edges until two
    super-vertices remain; returns that cut. Always an upper bound on the
    minimum cut. Requires n >= 2 and a connected graph. *)

val mincut :
  ?domains:int ->
  Dcs_util.Prng.t ->
  trials:int ->
  Dcs_graph.Ugraph.t ->
  float * Dcs_graph.Cut.t
(** Best cut over [trials] independent runs. Runs execute on the pool
    ({!Dcs_util.Pool.run_batched}) over [domains] domains (default
    [Pool.domain_count ()], i.e. [DCS_DOMAINS]), with one reusable
    scratch arena (edge clocks, sort permutation, union-find state) per
    domain; per-run [Prng.split] streams and an in-order reduction make
    the result bit-identical for every domain count. *)

val candidate_cuts :
  ?domains:int ->
  Dcs_util.Prng.t ->
  trials:int ->
  factor:float ->
  Dcs_graph.Ugraph.t ->
  (float * Dcs_graph.Cut.t) list
(** Distinct cuts discovered across [trials] runs whose value is at most
    [factor] times the best value seen, sorted by value (cuts and their
    complements are identified). Same parallel execution and determinism
    guarantee as {!mincut}. *)
