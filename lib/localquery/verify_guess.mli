(** VERIFY-GUESS (Lemma 5.8, after BGMP21), implemented by cut-preserving
    edge sampling.

    Given the degree vector D and a guess t for the minimum cut, sample
    every edge slot (vertex, neighbor-index) independently with probability
    p/2 where p = min(1, c₀·ln n / (ε²·t)), reweight sampled edges by 1/p
    (each edge has two slots, so it is kept with expected multiplicity p),
    and compute the exact minimum cut of the sample. By Karger's sampling
    theorem, if t <= k all cuts are preserved within (1 ± ε) w.h.p., so the
    sample's minimum cut estimates k; if t >= Θ(ln n/ε²)·k the minimum cut
    is so under-sampled that its sampled value falls below the acceptance
    threshold (possibly disconnecting the sample). The decision rule is
    accept iff estimate >= t/2.

    Query cost: Binomial(2m, p/2) edge queries — Õ(ε⁻²·m/t) in expectation,
    exactly Lemma 5.8's bound. Degree queries are not issued here: D is an
    input, as in the paper's VERIFY-GUESS(D, t, ε) signature. *)

type outcome = {
  accepted : bool;
  estimate : float;       (** scaled minimum cut of the sample *)
  edge_queries : int;     (** queries issued by this call *)
  sample_edges : int;     (** distinct edges in the sample *)
  p : float;              (** sampling rate used *)
}

val run :
  ?c0:float ->
  Dcs_util.Prng.t ->
  Oracle.t ->
  degrees:int array ->
  t:float ->
  eps:float ->
  outcome
(** [c0] defaults to 2.0 (the paper's 2000 is a worst-case constant;
    EXPERIMENTS.md records the scaling). When p reaches 1 the whole graph
    is read (2m edge queries) and the estimate is exact.

    Against a faulty oracle, [edge_queries] still counts {e logical}
    queries; the metered physical count, retries and votes included, is
    on the oracle. May raise {!Oracle.Exhausted}. *)
