(** Idealized (1 ± ε′) cut oracle.

    The lower-bound theorems quantify over *every* sketching algorithm with
    a given accuracy; this module provides the adversary's best case — a
    black box that answers each cut query within a (1 ± ε′) multiplicative
    factor and nothing more. Running the Section 3/4 decoders against it at
    varying ε′ exhibits the accuracy threshold at which decoding collapses,
    which is the operational content of the lower bounds ("a sketch this
    accurate carries this many bits").

    Noise modes:
    - [Random]: each query perturbed by an independent uniform factor in
      [1-ε′, 1+ε′] (models an unbiased sketch);
    - [Adversarial]: each query scaled by (1 + ε′·σ) with σ a fresh random
      sign (worst-case magnitude, the regime the proofs assume). *)

type mode = Random | Adversarial

val create :
  ?mode:mode -> Dcs_util.Prng.t -> eps:float -> Dcs_graph.Digraph.t -> Sketch.t
(** [size_bits] is reported as the canonical encoding of the underlying
    graph (the oracle is idealized; its size is not the object of study). *)
