(** [dcutd]'s engine: a long-lived, overload-tolerant cut-query serving
    layer with admission control and graceful degradation.

    The server owns a catalog of frozen {!Dcs_graph.Csr} graphs and answers
    batched cut-value queries against them. Time is {e virtual} — a tick
    counter advanced by configured per-operation costs — so throughput,
    latency and every admission decision are pure functions of (trace,
    config, seed): byte-identical at every [DCS_DOMAINS] setting, which is
    what lets the determinism gate diff a million-request serving run.
    Wall clock never enters a result.

    {b The cardinal rule: rejected ≠ dropped.} Every offered request gets
    exactly one response — an answer, or a {e typed} rejection saying who
    refused it and why. [run] enforces structurally that
    [answered + shed + deadline_rejections = offered]. Each counted event
    bumps the server's own tally and its [serve.*] registry counter in one
    step, so {!stats} and the registry agree.

    The life of a request:

    + {b wire}: requests arriving on the same tick travel in one CRC-framed
      message over a lossy {!Dcs_comm.Channel}, delivered by the bounded
      {!Dcs_comm.Channel.transmit_reliable} loop — a frame that exhausts its
      retransmissions rejects its whole batch with the give-up accounting
      attached;
    + {b admission}: a token bucket ({!Dcs_util.Token_bucket}) rate-limits
      at the arrival tick, then a bounded FIFO queue admits or sheds per
      the configured {!shed_policy};
    + {b service}: batches are pulled from the queue; a batch of 8 or more
      live requests runs on {!Dcs_util.Pool.parallel_init}, a smaller one
      inline (bit-identical either way). The sketch cache — keyed by
      {!Dcs_graph.Csr.fingerprint} — is consulted in the control plane; a
      miss charges the sketch (re)build cost. Oracle timeouts (seeded
      {!Dcs_util.Fault}) are retried with capped jittered exponential
      backoff ({!Dcs_util.Retry.with_jittered_backoff}), backoff ticks
      charged to that request's completion time;
    + {b degradation}: a circuit breaker watches the fault rate and queue
      depth over sliding windows; when either trips, the server switches to
      a degraded mode — coarser sketch, wider [eps], cheaper ticks, no
      oracle — and every degraded answer {e says so} and still lands within
      its advertised [eps]. Recovery needs a streak of healthy windows
      (hysteresis), so the breaker cannot flap on one good batch;
    + {b deadlines}: a request past its deadline — whether it expired in the
      queue or finished too late — gets a typed [Deadline_exceeded] with its
      lateness, never a silent drop. *)

(** Who gets shed when an admission-control limit is hit. *)
type shed_policy =
  | Reject_newest  (** shed the arriving request (default) *)
  | Reject_oldest  (** shed the head of the queue to admit the arrival *)

type overload_cause =
  | Queue_full    (** the bounded admission queue was at [queue_depth] *)
  | Rate_limited  (** the token bucket was empty at the arrival tick *)
  | Wire_give_up of Dcs_comm.Channel.give_up
      (** the request's frame exhausted [max_retransmissions] *)

type rejection =
  | Overloaded of overload_cause
      (** shed by admission control, never executed *)
  | Deadline_exceeded of { lateness : int }
      (** completed (or expired) [lateness] ticks past the deadline *)

type reply = {
  value : float;    (** quantized cut value *)
  eps : float;      (** advertised accuracy: |value - exact| <= eps * exact *)
  degraded : bool;  (** served in degraded mode (or oracle-exhausted) *)
  latency : int;    (** completion tick - arrival tick *)
  cache_hit : bool; (** sketch cache hit (no rebuild charged) *)
}

type response = Answered of reply | Rejected of rejection

(** Circuit-breaker thresholds. The breaker trips — entering degraded
    mode — when a 64-request sliding window's oracle fault rate reaches
    0.5, or the queue depth reaches [trip_queue]. It recovers only after
    [recovery_windows] {e consecutive} healthy windows (fault rate at most
    0.25 and queue at most half [trip_queue]) — the hysteresis that keeps
    one clean batch from flapping the breaker open and shut. *)
type breaker_config = { trip_queue : int; recovery_windows : int }

(** The settings programs vary. Every server runs at the same engine
    constants: [eps] 0.05 at full fidelity and 0.25 degraded, a 256-token
    bucket refilling 1/2 token per tick (full at tick 0), 6 ticks per
    full-fidelity evaluation, 12 per sketch rebuild, 2 per service batch,
    and a jittered-backoff base of 1 tick. *)
type config = {
  queue_depth : int;        (** admission queue bound *)
  shed_policy : shed_policy;(** who is shed on overflow *)
  batch : int;              (** max requests pulled per service batch *)
  cost_degraded : int;      (** ticks per degraded evaluation *)
  cache_capacity : int;     (** sketch-cache entries before LRU eviction *)
  retry_budget : int;       (** oracle attempts per request, >= 1 *)
  backoff_cap : int;        (** jittered-backoff cap, ticks *)
  max_retransmissions : int;(** wire re-sends before a frame gives up *)
  breaker : breaker_config;
  oracle : Dcs_util.Fault.policy;  (** timeout injection on the oracle *)
  wire : Dcs_util.Fault.policy;    (** drop/corrupt injection on frames *)
}

val default_config : config
(** Fault-free, calm-capacity defaults: queue 512 / [Reject_newest],
    batch 32, degraded cost 2, cache 16, retry budget 4 with backoff cap
    16, 4 retransmissions, breaker (384, 3). *)

val validate : config -> unit
(** [Invalid_argument] on nonsensical bounds (non-positive depths, batch,
    budgets or backoff cap; a negative degraded cost or retransmission
    count). *)

type t

val create : ?domains:int -> config -> graphs:Dcs_graph.Csr.t array -> rng:Dcs_util.Prng.t -> t
(** [create cfg ~graphs ~rng] builds a server over a non-empty catalog;
    requests address graphs by index (the trace's [key]) and the sketch
    cache is keyed by each graph's {!Dcs_graph.Csr.fingerprint}, computed
    once here. [rng] seeds (by forking, in a fixed order) the oracle and
    wire fault injectors and the retry jitter — equal seeds give
    byte-identical servers. [domains] overrides the pool's
    domain count (default: [DCS_DOMAINS] / recommended). *)

val degraded : t -> bool
(** Whether the breaker is currently open (serving degraded). *)

val update_graph : t -> key:int -> Dcs_graph.Csr.t -> unit
(** Swap catalog slot [key] for a re-frozen graph — the live-mutation hook
    the streaming layer ([Stream_sketch]) calls after ingesting edge
    updates. The slot's fingerprint is recomputed, and when the content
    actually changed the stale sketch-cache entry (keyed by the {e old}
    fingerprint) is removed, metered as [serve.cache_invalidations] — so a
    cached sketch can never answer for content it no longer matches, while
    an update that leaves the graph bit-identical keeps the cache warm.
    Control-plane only; [Invalid_argument] if [key] is outside the
    catalog. *)

val run : t -> Traffic.request array -> response array
(** Serve a trace to completion; slot [i] responds to request [i]. The
    trace must have nondecreasing arrivals, keys within the catalog, and
    arrivals no earlier than the server's clock (the clock persists across
    [run]s — the server is long-lived). Deterministic: equal (server seed,
    config, trace) give byte-identical response arrays at every
    [DCS_DOMAINS]. *)

(** Cumulative accounting since [create]. Invariants, [run]-enforced:
    [offered = answered + shed + deadline_rejections] and
    [shed = queue_full + rate_limited + wire_rejections]. *)
type stats = {
  offered : int;
  answered : int;            (** of them, [degraded_answers] were degraded *)
  degraded_answers : int;
  shed : int;                (** typed admission rejections, never executed *)
  queue_full : int;
  rate_limited : int;
  wire_rejections : int;     (** requests on frames that gave up *)
  deadline_rejections : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_invalidations : int; (** stale entries removed by [update_graph] *)
  oracle_retries : int;      (** oracle attempts beyond each first *)
  oracle_exhausted : int;    (** retry budgets spent: degraded fallback *)
  backoff_ticks : int;
  breaker_trips : int;
  breaker_recoveries : int;
  batches : int;
  queue_peak : int;
  clock : int;               (** current virtual tick *)
}

val stats : t -> stats
