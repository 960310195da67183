(** Crash-safe checkpoint/resume for long trial sweeps.

    A checkpoint is a snapshot of every completed trial of a sweep,
    written {e atomically} (temp file + rename, so a reader sees the old
    snapshot or the new one, never a torn write) inside a CRC-32
    {!Checksum.frame} (so any single-bit corruption or truncation is
    rejected at load instead of resurrecting garbage results). Snapshots
    carry a caller-chosen {e signature} string — bake the experiment
    name, seed, and parameters into it, and a checkpoint from a different
    configuration is rejected rather than silently resumed.

    {!sweep} combines this with {!Pool.run_supervised}: trials already in
    the snapshot are restored, the rest run supervised (crash isolation,
    deadlines, restart budget), and a fresh snapshot is written after
    every block. Because trial [i]'s stream is split from the master by
    its {e index} (see [indices] in {!Pool.run_supervised}), an
    interrupted sweep resumed from its checkpoint produces output
    bit-identical to an uninterrupted run — at any [DCS_DOMAINS], with
    any interruption point, even after the checkpoint file itself is
    corrupted (the snapshot is discarded and the trials recomputed). *)

type record = { index : int; payload : string }

val save : path:string -> signature:string -> record list -> unit
(** Atomically replaces the snapshot at [path] ([path ^ ".tmp"] is the
    scratch file). Record indices must be nonnegative and strictly
    increasing ([Invalid_argument] otherwise). *)

val load :
  path:string -> signature:string -> (record list, string) result
(** The snapshot's records, or a diagnostic: missing/unreadable file,
    frame damage (any bit flip or truncation), malformed body, or
    signature mismatch. Never raises on bad file contents. Frame-damage
    diagnostics are forensic, not just a bare invalid-snapshot signal:
    a checksum failure reports the body's byte offset and the
    expected-vs-actual CRC-32, truncation reports promised-vs-found
    lengths (see {!Checksum.unframe}), so quarantine reports name where
    and how the snapshot went bad. *)

(** {2 Resumable supervised sweeps} *)

exception Interrupted of { path : string; completed_now : int }
(** Raised by {!sweep} when [abort_after] fires: the snapshot on disk
    holds every trial completed so far ([completed_now] of them newly
    computed this run). Used by the chaos harness and the determinism
    gate to simulate a killed process at a deterministic point. *)

type sweep_report = {
  resumed : int;           (** trials restored from the snapshot *)
  computed : int;          (** trials (re)computed this run *)
  saves : int;             (** snapshots written *)
  discarded : string option;
      (** why a present snapshot was rejected (corruption, signature
          mismatch, undecodable payload), if it was *)
  crashes : int;           (** summed over blocks, from {!Pool.report} *)
  hangs : int;
  restarts : int;
  failures : Pool.failure list;
}

val sweep :
  ?path:string ->
  ?signature:string ->
  ?resume:bool ->
  ?block:int ->
  ?abort_after:int ->
  encode:('a -> string) ->
  decode:(string -> 'a option) ->
  rng:Prng.t ->
  n:int ->
  (Pool.ctx -> 'a) ->
  'a array * sweep_report
(** [sweep ~encode ~decode ~rng ~n task] is
    [Pool.run_supervised ~rng ~n task] plus persistence:

    - with [path] set and [resume] (default [true]), a valid snapshot at
      [path] seeds the result array ([decode] returning [None] on any
      record discards the whole snapshot — generations never mix);
      with [~resume:false] an existing snapshot is deleted first;
    - remaining trials run supervised in blocks of [block] (default 16),
      a fresh snapshot written after each block;
    - [abort_after] simulates a kill: once that many trials have been
      newly computed (and checkpointed), {!Interrupted} is raised;
    - without [path], everything runs in one supervised batch and nothing
      touches the filesystem.

    Trials run on [Pool.domain_count ()] domains ([DCS_DOMAINS]) under
    {!Pool.run_supervised}'s defaults: a restart budget of 2 and no
    deadline.

    [signature] (default [""]) must match the snapshot's. The result is
    bit-identical however the run was split across interruptions. *)
