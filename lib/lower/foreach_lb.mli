(** The Section 3 lower-bound construction (Theorem 1.1): encoding a random
    sign string into a β-balanced digraph so that any (1 ± Θ̃(ε)) for-each
    cut sketch allows each bit to be recovered with 4 cut queries.

    Structure (paper's notation): n vertices in ℓ = n/k blocks of
    k = √β/ε; each consecutive block pair carries a complete bipartite
    digraph. Left/right blocks split into √β clusters of size 1/ε; the
    (1/ε - 1)² sign bits of a cluster pair are superposed over the 1/ε²
    forward edges through the Hadamard-tensor rows of Lemma 3.2
    (w = ε·Σ_t z_t·M_t + 2c₁ln(1/ε)·1), and every backward edge has weight
    1/β. Decoding bit t queries the four cuts S = A ∪ (V_{p+1}\B) ∪ rest
    given by the sign pattern of M_t = h_A ⊗ h_B (Figure 1) and subtracts
    the instance-independent backward weight in closed form. *)

type params = {
  n : int;        (** total vertices, a multiple of block = √β/ε *)
  beta : int;     (** balance parameter; must be a perfect square *)
  inv_eps : int;  (** 1/ε; a power of two, >= 2 *)
}

val make_params : beta:int -> inv_eps:int -> int -> params
(** [make_params ~beta ~inv_eps n] validates all divisibility constraints.
    The ‖x‖_∞ bound constant c₁ (the encode failure threshold) is 2.0. *)

val layout : params -> Layout.t
val eps : params -> float
val sqrt_beta : params -> int
val block_size : params -> int
(** k = √β/ε. *)

val bits_capacity : params -> int
(** |s| = β·(1/ε - 1)²·(ℓ-1): the number of sign bits the construction
    stores, hence the paper's Ω̃(n√β/ε) once constants are unwound. *)

val bits_per_pair : params -> int

val weight_low : params -> float
(** Minimum forward edge weight c₁·ln(1/ε) (when the encode succeeded). *)

val weight_high : params -> float
(** Maximum forward weight 3c₁·ln(1/ε). *)

val balance_upper_bound : params -> float
(** Edgewise balance certificate: 3c₁·β·ln(1/ε) — the paper's
    O(β log(1/ε)). *)

type instance = {
  params : params;
  s : int array;          (** the encoded string, entries in \{-1,+1\} *)
  graph : Dcs_graph.Digraph.t;
  failed : bool array;    (** per cluster pair: ‖x‖_∞ check failed, constant
                              weights used instead (paper's 1% event) *)
}

val encode : params -> s:int array -> instance
(** Deterministic given [s]; length must equal [bits_capacity]. *)

val random_instance : Dcs_util.Prng.t -> params -> instance

type address = {
  pair : int;    (** chain pair p: blocks (V_p, V_{p+1}) *)
  ci : int;      (** left cluster index in [√β] *)
  cj : int;      (** right cluster index *)
  t : int;       (** row of the decode matrix, in [(1/ε - 1)²] *)
}

val address_of_index : params -> int -> address
val index_of_address : params -> address -> int
val failed_at : instance -> int -> bool
(** Whether the cluster pair holding this bit index failed to encode. *)

type decode_result = {
  decoded : int;         (** in \{-1,+1\} *)
  estimate : float;      (** estimate of ⟨w, M_t⟩ = z_t/ε *)
  queries_used : int;    (** always 4 *)
}

val decode_bit :
  params -> query:(Dcs_graph.Cut.t -> float) -> int -> decode_result
(** Bob's algorithm: needs only the public parameters and a cut-value
    oracle. *)

val query_cut :
  params -> address -> side_a:int -> side_b:int -> Dcs_graph.Cut.t
(** The cut S = A ∪ (V_{p+1} \ B) ∪ V_{p+2} ∪ … queried for one sign
    combination (sides are +1/-1 selecting A vs its cluster complement);
    exposed for the Figure 1 anatomy experiment and tests. *)

val fixed_backward_weight : params -> address -> float
(** Closed-form total weight of backward edges crossing [query_cut]
    (independent of the sign combination because |A| = |B| = 1/(2ε)). *)

val codec_sketch : instance -> Dcs_sketch.Sketch.t
(** The instance-optimal matching upper bound: a sketch that serializes the
    construction as s itself (1 bit per sign plus a fixed-size header) and
    answers cut queries exactly by rebuilding the graph. Its size is what
    makes the lower bound tight on this instance family. *)

val codec_bits : params -> int

type trial_stats = {
  trials : int;
  bits_tested : int;
  correct : int;
  success_rate : float;
  encode_failure_rate : float;  (** fraction of tested bits in failed pairs *)
  mean_sketch_bits : float;
}

val run_trials :
  Dcs_util.Prng.t ->
  params ->
  sketch_of:(Dcs_util.Prng.t -> instance -> Dcs_sketch.Sketch.t) ->
  trials:int ->
  bits_per_trial:int ->
  trial_stats
(** Fresh random instance per trial; [bits_per_trial] uniformly random
    indices decoded against the provided sketch. Trials run in parallel on
    [Pool.domain_count ()] domains ([DCS_DOMAINS]); each trial draws from
    its own [Prng.split] stream, so the stats are bit-identical for every
    domain count. [sketch_of] receives the trial's private rng and must
    not touch shared mutable state. *)
