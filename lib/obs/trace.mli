(** Lightweight span tracing with Chrome trace-event export.

    A span brackets a region of interest ({!with_span}); while tracing is
    {e off} — the default — a span is a single atomic load and a closure
    call, cheap enough to leave in encode/decode hot paths. While on, each
    span records its wall-clock duration into a per-domain aggregation
    table (merged by {!stats}: count, total, and self time = total minus
    time spent in child spans), and, when the [DCS_TRACE] environment
    variable names a file, a complete Chrome trace event, written there at
    exit. Load the file at [chrome://tracing] or [https://ui.perfetto.dev].

    Tracing is wall-clock by nature, so nothing here feeds
    {!Metrics.snapshot}: determinism gates diff metrics, never traces.

    Aggregation happens per domain with no locking on the hot path; call
    {!stats} only at quiescent points (after pool joins), as the benches
    do. *)

val enabled : unit -> bool

val enable : unit -> unit
(** Turn span aggregation on programmatically (E18 does this to build its
    hot-path table without requiring the env var). Chrome events are still
    only written when [DCS_TRACE] is set. *)

val disable : unit -> unit

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span. Exception-safe: the span is
    closed (and charged to its parent) however [f] exits. [args] become the
    Chrome event's [args] object. *)

type stat = {
  name : string;
  count : int;
  total_s : float;  (** total wall-clock seconds inside this span *)
  self_s : float;   (** total minus time inside child spans *)
}

val stats : unit -> stat list
(** Merged across domains, sorted by self time (descending). *)

val reset : unit -> unit
(** Drop all aggregated stats and buffered events. *)

val json_escape : string -> string
(** JSON string-body escaping (shared with {!Report}'s emitters). *)
