(** Per-domain sharded metrics: counters and exponential-bucket
    histograms.

    Metrics are process-global and named; {!counter}/{!histogram} are
    get-or-create, so any layer can reach for ["oracle.edge_queries"]
    without plumbing a handle through every call site. Each metric is
    sharded over a fixed number of atomic cells indexed by the bumping
    domain, so increments from a {!Dcs_util.Pool} fan-out are never lost
    and rarely contend; a {!snapshot} merges the shards and sorts by name,
    making the result a pure function of the logical events — bit-identical
    for every [DCS_DOMAINS] setting as long as the instrumented run itself
    is deterministic. Snapshots carry counts only, never wall-clock, so
    they belong in determinism gates ([bin/check_determinism.sh] diffs
    them); timing lives in {!Trace}. *)

type counter
type histogram

val counter : string -> counter
(** Get-or-create. Raises [Invalid_argument] if the name is already
    registered as a different kind. *)

val histogram : ?buckets:int -> string -> histogram
(** Exponential buckets (default 24): bucket 0 counts values <= 0, bucket
    [i >= 1] counts values in [2^(i-1), 2^i), the last bucket absorbs the
    overflow. Raises [Invalid_argument] on fewer than 2 buckets, or if the
    name exists with a different bucket count. *)

val inc : ?by:int -> counter -> unit
(** Add [by] (default 1, must be >= 0) to the calling domain's shard. *)

val observe : histogram -> int -> unit
(** Count the value into its bucket and accumulate it into the sum cell. *)

val in_attempt : (unit -> 'a) -> 'a
(** [in_attempt f] journals every increment the {e calling domain} makes
    during [f] and applies the journal only if [f] returns normally; on an
    exception the journal is dropped and the exception re-raised. This is
    how {!Dcs_util.Pool.run_supervised} makes a crashed-and-retried task
    count exactly once in the merged snapshot. Nests: an inner commit folds
    into the enclosing journal, so an outer discard rolls back the whole
    subtree. Increments made by domains spawned inside [f] bypass the
    journal. *)

(** {2 Reading} *)

val counter_value : counter -> int
(** Merged (all-shard) value. *)

type histogram_value = {
  count : int;             (** total observations *)
  sum : int;               (** sum of observed values *)
  bucket_counts : int array;
}

val histogram_value : histogram -> histogram_value

val bucket_label : buckets:int -> int -> string
(** Human label for bucket [b], e.g. ["0"], ["4-7"], ["4194304+"]. *)

type value = Counter_v of int | Histogram_v of histogram_value

type snapshot = (string * value) list
(** Sorted by name. *)

val snapshot : unit -> snapshot
