(** Karger's randomized contraction for global minimum cut, plus the
    near-minimum-cut enumeration the distributed pipeline needs.

    The paper's distributed-min-cut motivation (Section 1) relies on the
    fact that at most n^O(C) cuts are within a factor C of the minimum; the
    coordinator finds them by repeated contraction and then refines with
    for-each queries. [candidate_cuts] implements that enumeration. *)

val run_once : Dcs_util.Prng.t -> Dcs_graph.Ugraph.t -> float * Dcs_graph.Cut.t
(** One contraction run: contract weighted-random edges until two
    super-vertices remain; returns that cut. The m exponential clocks are
    heapified in O(m) and popped in (clock, edge index) order only until
    two super-vertices remain. Always an upper bound on the
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
    scratch arena (a heap of (clock, edge index) keys, union-find
    state) per domain; per-run [Prng.split] streams and an in-order reduction make
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

(** {2 Contraction to a class count} *)

type scratch
(** The clock heap and union-find state of one contraction, reusable by
    every run on a graph of at most the sizes it was made for. *)

val make_scratch : edges:int -> vertices:int -> scratch

val contract :
  Dcs_util.Prng.t ->
  scratch ->
  edges:(int * int * float) array ->
  n:int ->
  classes:int ->
  int array option
(** {!run_once}'s contraction — the same clocks, the same pops — of the
    graph on [n] vertices with canonical edge list [edges], until
    [classes] super-vertices remain: [Some f] maps each vertex to its
    class in [\[0, classes)], numbered by smallest member; [None] when
    the edges ran out first. The loop of {!Karger_stein}'s levels. *)
