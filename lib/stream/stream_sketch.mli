(** Crash-consistent streaming sketch state over insert/delete edge
    streams.

    A [Stream_sketch.t] is its graph: a live {!Dcs_graph.Digraph} that
    every mutation updates in place, a memoized canonical
    {!Dcs_graph.Csr} freeze of it, refreshed under a configurable
    {!refreeze} policy ([Rebuild] after every mutation, or [Delta_buffer]
    once more than a threshold of arcs differ from the last freeze), the
    set of arcs that differ from that freeze, and the highest WAL slot
    applied. Imbalances and sketches are computed from the graph when
    asked for.

    Everything observable is canonical — cut values, fingerprints and
    derived sketches are pure functions of the graph content (and of the
    PRNG a sampled sketch is given), never of the mutation history that
    produced it — so a streamed state and a batch build of the final
    graph agree bit for bit (with the repo's integer/dyadic weight
    convention making every float sum exact).

    Durability composes {!Wal} (one flushed record per mutation) with
    {!Dcs_util.Checkpoint}-compacted snapshots: {!recover} restores the
    last snapshot and replays the log's surviving suffix, reproducing the
    exact pre-kill state ({!digest}-verified in the E22 chaos battery) at
    any record-boundary kill, with every damaged/duplicated/reordered
    record accounted for in the {!Wal.replay_report}. The [stream.*]
    registry counters meter the whole layer. *)

type refreeze =
  | Rebuild  (** re-freeze after every mutation *)
  | Delta_buffer of { compact_threshold : int }
      (** re-freeze once more than [compact_threshold] arcs differ from
          the last freeze *)

(** Typed rejection reasons, checked {e before} any state mutates. *)
type reject =
  | Out_of_range of { u : int; v : int; n : int }
  | Self_loop of int
  | Bad_weight of float
  | Below_zero of { u : int; v : int; have : float; requested : float }

val pp_reject : reject -> string

type t

val create : ?refreeze:refreeze -> n:int -> seed:int -> unit -> t
(** Empty state on [n] vertices. [seed] names the state in its snapshot
    signature ([stream-sketch v1 n=… seed=…]), so a snapshot restores only
    into a state created with the same [n] and [seed]; it changes no
    content. Default policy is [Rebuild]. *)

val arcs : t -> int
(** Live arcs. *)

val delta_pairs : t -> int
(** Arcs whose live weight differs from the last freeze; an arc whose
    weight returns to its frozen value stops counting. 0 under [Rebuild]
    and never above a [Delta_buffer] policy's threshold once a mutation
    returns. *)

val applied_seq : t -> int
(** Highest WAL sequence slot folded into this state. *)

val apply : t -> op:Wal.op -> u:int -> v:int -> w:float -> (unit, string) result
(** Add ([Insert]) or subtract ([Delete]) weight [w] on arc (u, v) — the
    one mutation path, in the shape {!Wal.replay} wants. The op is
    checked before anything mutates: an out-of-range arc, a self-loop, a
    weight that is not positive and finite, or a deletion below zero
    returns [Error] with the {!pp_reject} rendering of its {!reject}
    reason, bumps [stream.rejects] and mutates nothing. *)

val imbalances : t -> float array
(** Per-vertex imbalances (out-weight − in-weight) of the live graph, via
    {!Dcs_sketch.Imbalance_sketch.imbalances}. *)

val cut_value : t -> Dcs_graph.Cut.t -> float
(** Directed cut value of the live graph, read off {!frozen} (so a stale
    state re-freezes first); metered as [stream.cut_queries]. Raises
    [Invalid_argument] on a size mismatch. *)

val frozen : t -> Dcs_graph.Csr.t
(** The canonical frozen view of the current content: the memoized
    freeze, refreshed first if any arc is stale. *)

val fingerprint : t -> int64
(** {!Dcs_graph.Csr.fingerprint} of {!frozen} — the serving layer's cache
    key for the live graph. *)

val exact_sketch : t -> Dcs_sketch.Sketch.t
(** Exact graph-valued sketch of the live graph — identical (same
    decisions, same size) to batch-building it on the final graph, which
    is what the E3/E4 streamed-vs-batch reruns enforce. *)

val imbalance_sketch :
  t -> Dcs_util.Prng.t -> eps:float -> beta:float -> Dcs_sketch.Sketch.t
(** {!Dcs_sketch.Imbalance_sketch.create} on the canonical thaw of
    {!frozen} — bit-identical to a batch build from the same PRNG. *)

val digest : t -> int64
(** One-word digest of the whole state: applied sequence, canonical
    graph fingerprint and arc count, chained through
    {!Dcs_util.Prng.mix64}. Recovery is correct
    iff the digest equals the uninterrupted run's — the check E22
    enforces at every record-boundary kill. Does not mutate the state
    and moves no [stream.*] counter. *)

(** {2 Durability} *)

val checkpoint : t -> path:string -> unit
(** Compact and persist the state (canonical edge list + applied
    sequence) atomically via {!Dcs_util.Checkpoint.save}; metered as
    [stream.checkpoint_saves]. *)

type recovery = {
  state : t;
  report : Wal.replay_report;
  snapshot_seq : int;  (** sequence floor restored from the snapshot *)
}

val recover :
  ?refreeze:refreeze ->
  n:int ->
  seed:int ->
  snapshot:string ->
  wal:string ->
  unit ->
  (recovery, string) result
(** Rebuild the state: restore the snapshot at [snapshot] (missing file =
    empty state), then {!Wal.replay} the log at [wal] on top. [Error]
    only for an unusable snapshot (its diagnostics carry byte offset and
    expected-vs-actual CRC, via {!Dcs_util.Checkpoint.load}) or an
    unreadable log — damaged log {e contents} are quarantined in the
    report instead. Metered as [stream.recoveries]. *)

(** {2 WAL-backed live ingest}

    A [journal] bundles the state with its write-ahead log: every
    accepted mutation is flushed to the log {e before} it is applied, so
    a kill at any point loses at most the in-flight record, and
    {!open_journal} always recovers the exact surviving state. Snapshots compact the log
    every [checkpoint_every] applied records (plus once at every open, so
    a damaged tail never sits in front of fresh appends). *)

type journal

val open_journal :
  ?refreeze:refreeze ->
  ?checkpoint_every:int ->
  dir:string ->
  n:int ->
  seed:int ->
  unit ->
  (journal * Wal.replay_report, string) result
(** Open (creating [dir] if needed) and recover whatever state the
    directory holds — [dir/snapshot.ckpt] plus [dir/wal.log]; the report
    says what the log replay found. [checkpoint_every = 0] (default)
    means only open-time snapshots. *)

val journal_state : journal -> t
val journal_insert : journal -> u:int -> v:int -> w:float -> (unit, string) result
val journal_delete : journal -> u:int -> v:int -> w:float -> (unit, string) result
(** Check, log (write-ahead, flushed whole), then apply. A rejected op
    (any {!reject} reason) returns [Error], bumps [stream.rejects] and
    never reaches the log: it consumes no sequence slot and mutates
    nothing. *)

val journal_checkpoint : journal -> unit
(** Force a compaction snapshot now and truncate the log. *)

val close_journal : journal -> unit
