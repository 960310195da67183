(** Cut sketches for β-balanced directed graphs — the upper-bound side of
    the paper's Theorems 1.1/1.2 (constructions in the shape of IT18 and
    CCPS21).

    Both samplers compute Nagamochi–Ibaraki strengths on the undirected
    projection (forward + backward weight per pair) and then sample each
    *directed* edge independently with a strength-based probability,
    oversampled by a function of β. In a β-balanced graph every directed
    cut is within a (1+β) factor of the corresponding undirected cut, so
    undirected strengths certify directed cut variance up to β factors —
    this is the mechanism behind the Õ(nβ/ε²) for-all bound of CCPS21.

    - [forall_sketch]: p_e = min(1, c·β·ln n / (ε²·k_e)). All directed cuts
      preserved within (1 ± ε) w.h.p.; expected size Õ(nβ/ε²) edges.
    - [foreach_sketch]: p_e = min(1, c·β / (ε²·k_e)) — the same scheme
      without the union-bound log factor; each fixed cut is preserved with
      constant probability (Chebyshev). Note: the asymptotically smaller
      Õ(n√β/ε) for-each construction of CCPS21 requires machinery beyond
      the scope of this reproduction; DESIGN.md discusses this substitution
      and experiment E8 uses the instance-optimal codec for the tightness
      comparison instead.

    CCPS21's connectivity-based sampler, p = min(1, ρ/λ̂), is
    {!Connectivity.sample}. *)

val forall_sketch :
  Dcs_util.Prng.t -> eps:float -> beta:float -> Dcs_graph.Digraph.t -> Sketch.t
(** {!forall_sparsify} at its default [c] (4.0), as a sketch. *)

val foreach_sketch :
  ?c:float -> Dcs_util.Prng.t -> eps:float -> beta:float -> Dcs_graph.Digraph.t -> Sketch.t

val forall_sparsify :
  ?c:float ->
  Dcs_util.Prng.t ->
  eps:float ->
  beta:float ->
  Dcs_graph.Digraph.t ->
  Dcs_graph.Digraph.t

val foreach_sparsify :
  ?c:float ->
  Dcs_util.Prng.t ->
  eps:float ->
  beta:float ->
  Dcs_graph.Digraph.t ->
  Dcs_graph.Digraph.t
