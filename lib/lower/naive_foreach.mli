(** The "simple encoding method" the paper's Section 1.2 rules out, built
    so the failure is measurable.

    Each bit is encoded into a single forward edge (weight 1 or 2, as in
    ACK+16/CCPS21); every backward edge has weight 1/β. To decode bit
    (u, v), Bob queries the one cut S = {u} ∪ (V_{p+1} \ {v}) ∪ rest and
    subtracts the fixed weights of everything except the (u, v) edge. The
    problem the paper points out: that cut carries Θ(β/ε²)·(1/β) = Θ(1/ε²)
    of backward mass plus Θ(k) of other forward edges, so a (1 ± ε') sketch
    answers with Θ(ε'/ε²) additive error while the signal is Θ(1) — the
    naive scheme needs accuracy ~ ε², whereas the Hadamard superposition of
    Section 3 survives down to ~ ε/ln(1/ε).

    The parameters and the chain layout are {!Foreach_lb}'s (blocks of
    k = √β/ε vertices, {!Foreach_lb.make_params} checks them) so the two
    schemes are compared on identically-shaped graphs. Each decode
    is one cut query, de-biased by the fixed backward mass it crosses
    ((k-1)² + boundary terms)/β and thresholded at 1.5: perfect with an
    exact oracle, drowned once ε' ≳ ε². *)

type instance = {
  params : Foreach_lb.params;
  s : bool array;
      (** one bit per forward edge, (ℓ-1)·k² of them: more raw bits than
          the Section 3 construction stores — the lower bound is about
          what a (1±ε) sketch lets Bob recover *)
  graph : Dcs_graph.Digraph.t;
}

type trial_stats = {
  trials : int;
  bits_tested : int;
  correct : int;
  success_rate : float;
}

val run_trials :
  Dcs_util.Prng.t ->
  Foreach_lb.params ->
  sketch_of:(Dcs_util.Prng.t -> instance -> Dcs_sketch.Sketch.t) ->
  trials:int ->
  bits_per_trial:int ->
  trial_stats
