(** DAG experiment scheduler with content-addressed artifact caching.

    Experiments declare typed {e stages} (generate-graph → freeze → sketch
    → decode → report) as vertices of a dependency DAG with explicit data
    edges; {!run} executes the DAG level by level (declaration order is a
    topological order by construction — a stage can only depend on nodes
    that already exist), fanning each level's independent stages across
    domains through {!Dcs_util.Pool.parallel_init}, and memoizes
    every stage output in a content-addressed {!Store}.

    A stage's cache key is a digest over (stage name, code digest, input
    artifact hashes, PRNG fingerprint) — see {!Store.action_key} — so a
    stage re-runs exactly when its identity, the running executable, the
    {e bytes} of any input artifact, or its randomness changes, and two
    experiments that declare the same prefix (same instances, same freeze)
    share one computation. The code digest is the MD5 of
    [Sys.executable_name], read once per process: a rebuilt binary gets
    no disk hits from an older binary's artifacts, so a changed stage or
    artifact type can never unmarshal stale bytes, and the same binary
    still warms from its own cache.

    Determinism contract: a stage function must be a pure function of its
    declared dependencies (plus its own PRNG, rebuilt from a seed inside
    the thunk), must never print to stdout (reports render from {!value}
    after {!run}; a cached warm run is then byte-identical to a cold
    one), and must not read undeclared stage outputs. Under that contract
    artifacts, values and the resulting report bytes are bit-identical
    for every [DCS_DOMAINS] setting and every cache state (cold, warm,
    spilled, damaged-and-recomputed).

    Everything is metered into {!Dcs_obs_core.Metrics}: the scheduler
    maintains [sched.stages_offered = sched.stage_runs + sched.cache_hits]
    as a structural invariant (E23 enforces it against the registry), and
    the store meters its tiers separately ([sched.store_mem_hits],
    [sched.store_disk_hits], [sched.store_spills],
    [sched.store_corrupt_rejected], [sched.store_misses]). *)

(** {2 Content-addressed artifact store}

    Two tiers: an in-memory table of raw artifact bytes, which keeps
    every artifact of the process, and an optional write-through disk
    tier. With [dir] set, every {!put} also persists the artifact
    through {!Dcs_util.Checkpoint.save} — an atomic temp-file+rename write
    inside a CRC-32 frame, signature-bound to the artifact key — so a
    cache populated by one process warms the next, torn writes are never
    visible, and any bit flip or truncation of a spilled artifact is
    rejected at load ({!find} returns [None] and the stage recomputes;
    damage can never produce a wrong cache hit). *)
module Store : sig
  type t

  val create : ?dir:string -> unit -> t
  (** [dir] (created if missing) enables the write-through disk tier.
      The store is used from the scheduling domain only; it is not
      itself thread-safe. *)

  val content_hash : string -> string
  (** Hex digest of artifact bytes (chained {!Dcs_util.Prng.mix64} over
      the bytes plus a CRC-32): the {e content address} used as the input
      hash of every dependent stage's key. *)

  val action_key :
    name:string -> code:string -> fingerprint:int64 ->
    inputs:string list -> string
  (** The cache key of one stage execution: a digest over the stage name,
      the code digest ({!run} passes the running executable's), its PRNG
      fingerprint and the content hashes of its inputs, in order.
      Filename-safe hex. *)

  val find : t -> string -> string option
  (** Memory tier first, then disk; a disk hit is promoted into memory.
      A damaged disk artifact (CRC/length/signature failure) counts into
      [sched.store_corrupt_rejected] and returns [None] — never stale or
      torn bytes. *)

  val put : t -> string -> string -> unit
  (** Insert (idempotent on an existing key). Writes through to disk when
      the store has a [dir] — recomputing a stage over a damaged artifact
      repairs the file. *)

  val entries : t -> int

  val artifact_path : t -> string -> string
  (** Where a key's artifact lives on disk ([Invalid_argument] without a
      [dir]). Exposed for the damage suites, which flip bits in it. *)
end

(** {2 Typed stages} *)

type 'a codec = {
  encode : 'a -> string;
  decode : string -> 'a option;  (** [None] on any undecodable input *)
}

val marshal_codec : unit -> 'a codec
(** [Marshal]-based codec for plain-data artifacts (graphs, instances,
    stat records — no closures, no custom blocks [Marshal] cannot
    serialize).
    Corruption of artifacts at rest is caught by the store's CRC frame
    before bytes ever reach [decode]; the [decode] side additionally maps
    any [Marshal] failure to [None] as defense in depth. *)

type t
(** A DAG under construction (then executed at most once by {!run}). *)

type 'a node
(** Handle to one stage's typed output. *)

type packed
(** A type-erased dependency edge (see {!dep}). *)

type mode =
  | Pooled  (** default: fanned across domains with the level's peers *)
  | Serial
      (** run alone in the scheduling domain after the level's pooled
          stages have joined — for stages that measure wall clock, drive
          their own [Pool] fan-outs at explicit domain counts, or probe
          global metric deltas that concurrent stages would pollute *)

val create : ?store:Store.t -> unit -> t
(** Fresh DAG. Without [store], a private in-memory store is created. *)

val dep : 'a node -> packed

val stage :
  t ->
  name:string ->
  ?fingerprint:int64 ->
  ?mode:mode ->
  codec:'a codec ->
  deps:packed list ->
  (unit -> 'a) ->
  'a node
(** Declares one stage. [name] and [fingerprint] (default [0L]; pass
    {!Dcs_util.Prng.fingerprint} of the stage's seed stream when it
    draws randomness) must be unique within the DAG —
    redeclaration raises [Invalid_argument], so two call sites that want
    to share a stage must share the node (the bench pipelines memoize
    their constructors). The thunk reads dependency values with {!value};
    every node it reads must appear in [deps], or scheduling and cache
    keys are wrong (reading an undeclared same-level output fails the
    stage deterministically). *)

val value : t -> 'a node -> 'a
(** The stage's decoded output: inside a thunk for declared dependencies,
    or anywhere after {!run}. Decodes once and memoizes. Fails if the
    stage has not been computed yet or its artifact does not decode. *)

val from_cache : t -> 'a node -> bool
(** After {!run}: whether the output came out of the store rather than a
    fresh execution. *)

val artifact_bytes : t -> 'a node -> string
(** After {!run}: the raw encoded artifact (for byte-identity tests). *)

val key_of : t -> 'a node -> string
(** After {!run}: the stage's cache key (for the damage suites). *)

type report = {
  stages : int;   (** vertices in the DAG *)
  offered : int;  (** stages considered ([= stages]) *)
  hits : int;     (** outputs served from the store *)
  ran : int;      (** stages executed ([offered = hits + ran]) *)
  pooled_ran : int;
  serial_ran : int;
  levels : int;   (** wavefronts executed *)
}

val run : t -> report
(** Executes the DAG: stages are grouped into levels by longest path from
    a source; each level first probes the store for every member's key,
    then runs the missing [Pooled] members across
    [Pool.domain_count ()] domains ([DCS_DOMAINS]) on
    {!Dcs_util.Pool.parallel_init}, then the missing [Serial] members one
    by one in the calling domain. Completed outputs are {!Store.put}
    before the next level's keys are derived. Runs at most once per DAG
    ([Invalid_argument] on a second call). A stage is a pure function of
    its key's inputs, so a restart could only repeat a crash: a raising
    pooled stage runs once and surfaces as {!Dcs_util.Pool.Task_failed}
    after its level's other pooled stages have run. *)
