(** The ACK+16 distributed min-cut pipeline the paper's introduction
    describes: each server sends (a) a constant-accuracy for-all sketch and
    (b) a (1 ± ε) for-each sketch of its edge shard; the coordinator merges
    the coarse sparsifiers to find all O(1)-approximate minimum cuts (at
    most poly(n) of them, located by repeated contraction) and then scores
    each candidate by summing the servers' for-each estimates — paying the
    ε-dependent communication only once per server at for-each rates.

    The baselines quantify the trade-off: shipping raw edges, or shipping
    full-accuracy for-all sketches. All message sizes are metered in bits
    by the sketches' canonical encodings.

    {!min_cut_robust} runs the same pipeline over a lossy medium
    ({!Dcs_util.Fault}): sketches travel in checksummed frames through
    {!Dcs_comm.Channel.transmit_reliable}, the coordinator detects dropped
    or corrupted deliveries and re-requests with exponential backoff up to
    4 times per sketch, and past that budget it degrades gracefully —
    candidates come from the surviving coarse sketches, scores are
    rescaled by the advertised weight of surviving fine shards, and the
    error bound is widened to one that holds. {!min_cut} is
    exactly the zero-fault instance: same estimates, same metered bits.

    Stragglers: the policy's timeout rate models a shard sketch arriving
    past the coordinator's per-sketch deadline. Rather than wait, the
    coordinator fires a {e speculative re-request} (sharing the same
    retry budget and backoff schedule as drop/corruption recovery) and
    keeps the newest late copy that parses as a fallback — a corrupted
    late copy never displaces an intact earlier one, so straggling costs
    speculative bits but never loses a sketch that arrived intact, and
    the estimate is unchanged. *)

(** The for-all sketches are built at accuracy 0.5 (the paper uses 0.2;
    0.5 at laptop scale), and candidates are the cuts within a factor 2
    of the best. *)
type config = {
  eps : float;            (** target accuracy of the final estimate *)
  karger_trials : int;    (** contraction runs for candidate enumeration *)
}

val default_config : eps:float -> config

val validate : config -> unit
(** [Invalid_argument] unless [0 < eps < 1] and [karger_trials >= 1].
    Called by both entry points, so a bad config fails loudly instead of
    silently producing garbage estimates. *)

type result = {
  estimate : float;               (** refined min-cut estimate *)
  coarse_estimate : float;        (** best candidate value on the merged sparsifier *)
  cut : Dcs_graph.Cut.t;          (** the winning candidate *)
  candidates : int;               (** candidate cuts scored *)
  forall_bits : int;              (** Σ coarse sketch sizes *)
  foreach_bits : int;             (** Σ for-each sketch sizes *)
  total_bits : int;
  naive_bits : int;               (** shipping every shard verbatim *)
  fullacc_forall_bits : int;      (** shipping (1±ε) for-all sketches instead *)
}

val min_cut :
  Dcs_util.Prng.t -> config -> Dcs_graph.Ugraph.t array -> result
(** Runs the full pipeline over the shards. Requires the merged graph to be
    connected with at least 2 vertices. *)

(** {2 Fault-tolerant pipeline} *)

type fault_report = {
  retransmissions : int;          (** frames re-sent after a drop/corruption *)
  drops_seen : int;               (** deliveries that never arrived *)
  corruptions_detected : int;     (** frames rejected by their checksum *)
  stragglers : int;               (** deliveries that arrived past the
                                      per-sketch deadline (the policy's
                                      timeout rate models the overrun) *)
  speculative_retransmissions : int;
                                  (** duplicate requests fired while a
                                      straggler was still in flight *)
  coarse_lost : int;              (** coarse sketches abandoned past budget *)
  fine_lost : int;                (** fine sketches abandoned past budget *)
  checksum_bits : int;            (** CRC overhead on first sends *)
  retransmit_bits : int;          (** full frames re-sent (payload + CRC) *)
  control_bits : int;             (** per-shard weight advertisements *)
  backoff_units : int;            (** Σ 2^attempt simulated backoff waits *)
  eps_effective : float;
      (** Bound on |estimate − exact| / exact: [eps] with nothing lost;
          max(1, scale·(1 + [eps]) − 1), scale = total / surviving shard
          weight, when only fine sketches are lost (a lost shard may hold
          the whole cut); [infinity] when a coarse sketch is lost (the
          minimum cut may be missing from the candidates). *)
  degraded : bool;                (** any sketch lost past the retry budget *)
}

type robust_result = { base : result; report : fault_report }

val min_cut_robust :
  Dcs_util.Prng.t ->
  config ->
  fault:Dcs_util.Fault.t ->
  Dcs_graph.Ugraph.t array ->
  robust_result
(** Each sketch gets a first send and up to 4 re-requests. With
    {!Dcs_util.Fault.disabled} the [base] result is bit-identical to
    {!min_cut}'s — the payload metering ([forall_bits] etc.) never
    includes the robustness overhead, which is reported separately in the
    {!fault_report}. Raises [Failure] when every
    coarse sketch is lost (or, under an active fault policy, the surviving
    merge is disconnected): with no usable for-all information there is
    nothing to degrade to. With nothing lost, a merged coarse sketch that
    sampling disconnected offers its components as the candidate cuts,
    each at sketch value 0, for the fine sketches to score. *)
