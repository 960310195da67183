(** Rendering for the observability registry.

    {!Metrics} collects, {!Trace} times; this module turns both into
    output: aligned text tables (via {!Dcs_util.Table}), a deterministic
    machine-readable JSON snapshot of the metrics registry, and the span
    hot-path table the E18 profiling experiment prints.

    The JSON snapshot contains counts only (no wall clock, sorted names),
    so it is byte-identical across [DCS_DOMAINS] whenever the instrumented
    run is deterministic — [bin/check_determinism.sh] relies on this. *)

val env_var : string
(** ["DCS_METRICS"]. [1] (or [stderr]) prints the text report to stderr at
    the end of a bench/dcut run; any other non-empty value is a path the
    JSON snapshot is written to. *)

val render : unit -> string
(** Text tables: one for counters, one for histogram buckets
    (bars rendered with {!Dcs_util.Stats.bucket_bars}). *)

val print : unit -> unit
(** [render] to stdout. *)

val span_table : unit -> Dcs_util.Table.t
(** The 12 top spans by self time from {!Trace.stats}. Wall
    clock: for humans, never for determinism diffs. *)

val snapshot_json : unit -> string
(** The metrics registry as JSON, sorted by name:
    [{"name":{"type":"counter","value":n}, ...}]. *)

val dump_env : unit -> unit
(** Honor [DCS_METRICS] (see {!env_var}); no-op when unset. Called by the
    bench harness and [dcut] at the end of a run. *)
