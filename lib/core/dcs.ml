(** Directed cut sparsification and distributed min-cut — lower bounds and
    matching algorithms.

    This is the umbrella module: one alias per sub-library, grouped the way
    the paper is. Reproduction of "Tight Lower Bounds for Directed Cut
    Sparsification and Distributed Min-Cut" (PODS 2024).

    {1 Substrates}

    - {!Prng}, {!Pool}, {!Stats}, {!Bits}, {!Table} — determinism, the
      parallel trial engine, statistics, and bit-level size accounting.
    - {!Fault}, {!Retry}, {!Checksum} — the deterministic fault-injection
      layer: seed-driven drop/corrupt/timeout/lie policies, bounded
      retry-with-backoff and majority voting, CRC-32 message framing.
    - {!Checkpoint} — crash-safe, CRC-framed checkpoint/resume for
      supervised trial sweeps (atomic snapshots, corruption rejection).
    - {!Hadamard}, {!Pm_vector}, {!Decode_matrix} — the Lemma 3.2 machinery.
    - {!Digraph}, {!Ugraph}, {!Csr}, {!Cut}, {!Balance}, {!Generators},
      {!Traversal} — graphs and cuts ({!Csr} is the frozen flat-array view
      the hot paths query).
    - {!Stoer_wagner}, {!Karger}, {!Karger_stein}, {!Dinic}, {!Brute} —
      exact and randomized minimum cuts, in O(n + m) memory: the exact
      solver is Nagamochi–Ibaraki contraction on the frozen rows, and
      Karger–Stein recurses on quotient rows; {!Max_adjacency} — the
      exact solver's kernel: maximum-adjacency orders and the merge step
      it shares with the connectivity estimator's contraction tier.
    - {!Bitstring}, {!Channel}, {!Index_game}, {!Gap_hamming}, {!Two_sum} —
      the communication problems behind each lower bound.

    {1 Cut sketches (Definitions 2.2 / 2.3 and upper bounds)}

    - {!Sketch} — the sketch interface the reductions consume.
    - {!Exact_sketch}, {!Noisy_oracle} — reference points.
    - {!Strength}, {!Importance}, {!Benczur_karger}, {!Foreach_sampler},
      {!Directed_sparsifier} — sampling-based sketches.
    - {!Connectivity} — batched local edge-connectivity estimation
      (tiered lower bounds: maximum-adjacency contraction where the
      input has two vertices of weighted degree at the cap, weight, NI
      strength, common-neighbour, capped Dinic flows on a reusable
      residual network) and the one
      connectivity sampler, {!Connectivity.sample} (CCPS21: p =
      min(1, ρ/λ̂)), feeding {!Partial_mincut} — sparsify-then-solve
      minimum cuts with certify/repair against the original graph.

    {1 The paper's lower bounds}

    - {!Foreach_lb} — Section 3 / Theorem 1.1.
    - {!Forall_lb} — Section 4 / Theorem 1.2.
    - {!Oracle}, {!Gxy}, {!Verify_guess}, {!Estimator} — Section 5 /
      Theorems 1.3 and 5.7; an {!Oracle} built with a {!Fault} injector
      answers through retry-and-vote recovery.

    {1 Distributed min-cut}

    - {!Partition}, {!Coordinator} — the ACK+16 pipeline from the
      introduction.

    {1 Streaming ingest}

    - {!L0_sampler}, {!Agm_sketch} — classic turnstile primitives.
    - {!Wal}, {!Stream_sketch} — crash-consistent insert/delete edge
      streams: CRC-framed write-ahead logging with typed quarantine of
      damaged records, checkpoint-compacted recovery that reproduces the
      pre-kill sketch state bit for bit, and a live {!Digraph} with a
      memoized canonical {!Csr} freeze that cut values and sketches are
      read from.

    {1 Serving}

    - {!Traffic}, {!Serve} — [dcutd]'s long-lived cut-query serving layer:
      deterministic open-loop traffic, admission control ({!Token_bucket},
      bounded queue with typed shedding), a
      {!Csr.fingerprint}-keyed sketch cache, jittered-backoff oracle
      retries and circuit-breaking to a degraded (wider-[eps]) mode.

    {1 Scheduling}

    - {!Sched} — experiments as typed stage DAGs: level-parallel execution
      over {!Pool.parallel_init} and a content-addressed artifact
      store (in-memory LRU spilling through {!Checkpoint}), so shared
      generate/freeze/sketch prefixes compute once and warm reruns are
      byte-identical to cold ones. *)

(** The observability substrate: {!Obs.Metrics} (per-domain sharded
    counters and exponential-bucket histograms with a deterministic merge),
    {!Obs.Trace} (spans with Chrome trace export, [DCS_TRACE]),
    {!Obs.Report} (the registry rendered as text tables and JSON snapshots,
    [DCS_METRICS]). Every layer below funnels its accounting here; E18
    cross-checks the registry against the bespoke meters. *)
module Obs = struct
  module Metrics = Dcs_obs_core.Metrics
  module Trace = Dcs_obs_core.Trace
  module Report = Dcs_obs.Report
end

module Prng = Dcs_util.Prng
module Pool = Dcs_util.Pool
module Stats = Dcs_util.Stats
module Bits = Dcs_util.Bits
module Table = Dcs_util.Table
module Message = Dcs_util.Message
module Fault = Dcs_util.Fault
module Retry = Dcs_util.Retry
module Token_bucket = Dcs_util.Token_bucket
module Checksum = Dcs_util.Checksum
module Checkpoint = Dcs_util.Checkpoint

module Hadamard = Dcs_linalg.Hadamard
module Pm_vector = Dcs_linalg.Pm_vector
module Decode_matrix = Dcs_linalg.Decode_matrix

module Digraph = Dcs_graph.Digraph
module Ugraph = Dcs_graph.Ugraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut
module Balance = Dcs_graph.Balance
module Generators = Dcs_graph.Generators
module Traversal = Dcs_graph.Traversal
module Eulerian = Dcs_graph.Eulerian
module Serialize = Dcs_graph.Serialize

module Stoer_wagner = Dcs_mincut.Stoer_wagner
module Karger = Dcs_mincut.Karger
module Karger_stein = Dcs_mincut.Karger_stein
module Gomory_hu = Dcs_mincut.Gomory_hu
module Dinic = Dcs_mincut.Dinic
module Brute = Dcs_mincut.Brute
module Max_adjacency = Dcs_mincut.Max_adjacency

module Bitstring = Dcs_comm.Bitstring
module Channel = Dcs_comm.Channel
module Index_game = Dcs_comm.Index_game
module Gap_hamming = Dcs_comm.Gap_hamming
module Two_sum = Dcs_comm.Two_sum

module Sketch = Dcs_sketch.Sketch
module Exact_sketch = Dcs_sketch.Exact_sketch
module Noisy_oracle = Dcs_sketch.Noisy_oracle
module Strength = Dcs_sketch.Strength
module Importance = Dcs_sketch.Importance
module Benczur_karger = Dcs_sketch.Benczur_karger
module Foreach_sampler = Dcs_sketch.Foreach_sampler
module Directed_sparsifier = Dcs_sketch.Directed_sparsifier
module Connectivity = Dcs_sketch.Connectivity
module Imbalance_sketch = Dcs_sketch.Imbalance_sketch

module Partial_mincut = Dcs_solve.Partial_mincut

module Layout = Dcs_lower.Layout
module Foreach_lb = Dcs_lower.Foreach_lb
module Forall_lb = Dcs_lower.Forall_lb
module Naive_foreach = Dcs_lower.Naive_foreach

module Oracle = Dcs_localquery.Oracle
module Gxy = Dcs_localquery.Gxy
module Verify_guess = Dcs_localquery.Verify_guess
module Estimator = Dcs_localquery.Estimator
module Reduction = Dcs_localquery.Reduction

module Laplacian = Dcs_spectral.Laplacian
module Resistance = Dcs_spectral.Resistance
module Spectral_sparsifier = Dcs_spectral.Spectral_sparsifier

module L0_sampler = Dcs_stream.L0_sampler
module Agm_sketch = Dcs_stream.Agm_sketch
module Wal = Dcs_stream.Wal
module Stream_sketch = Dcs_stream.Stream_sketch

module Partition = Dcs_distributed.Partition
module Coordinator = Dcs_distributed.Coordinator

module Traffic = Dcs_serve.Traffic
module Serve = Dcs_serve.Serve

(** The experiment scheduler: typed stage DAGs over {!Pool} with a
    content-addressed artifact cache spilling through {!Checkpoint}.
    E23 enforces its warm-vs-cold byte identity and cache-hit floor. *)
module Sched = Dcs_sched.Sched
