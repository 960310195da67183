(** Write-ahead log for edge-mutation streams.

    One record per graph mutation, framed as a single line

    {v DCSW1 <crc32-hex> <seq> <op> <u> <v> <weight-hex>\n v}

    where the CRC-32 ({!Dcs_util.Checksum.crc32}) covers the canonical
    rendering of everything after it, [seq] is a monotone sequence number
    assigned by the writer, [op] is [I] (insert / add weight) or [D]
    (delete / subtract weight), and the weight travels as a lossless
    hexadecimal float. Line framing makes the log self-resynchronizing: a
    damaged record costs exactly the bytes up to the next newline, and a
    write torn mid-record at the tail (the only place a crashed writer can
    tear, since every append is flushed whole) is recognized as such
    rather than as corruption.

    Replay is idempotent and order-insensitive by sequence number:
    duplicated records are counted and skipped, reordered records are
    re-sorted and applied in sequence order, records at or below the
    snapshot's floor are stale, and records that cannot be applied — CRC
    or parse damage, a sequence gap left by a lost record, or an operation
    the state rejects — are {e quarantined with a typed reason, never
    silently dropped}. The books must always balance:

    {v applied + duplicates + stale + |quarantined| = offered v}

    which experiment E22 cross-checks against the [stream.wal_*] counters
    in the {!Dcs_obs_core.Metrics} registry.

    The {!Adversary} submodule drives damage deterministically through
    {!Dcs_util.Fault} policies (drop → lost record, corrupt → bit flip,
    lie → duplicated record, timeout → delayed/reordered record), so the
    chaos batteries are pure functions of (seed, policy, stream). *)

type op = Insert | Delete

type record = { seq : int; op : op; u : int; v : int; w : float }
(** A logged mutation: add ([Insert]) or subtract ([Delete]) weight [w]
    on arc ([u], [v]). [w] must be positive and finite; [seq] >= 1. *)

val encode : record -> string
(** The record's one-line wire form, trailing newline included. *)

val decode : string -> (record, string) result
(** Parse one line (without its newline). Rejects, with a diagnostic
    carrying the expected-vs-actual evidence: bad magic, field-count or
    integer/float parse failures, CRC mismatch, and any non-canonical
    rendering: the checksummed body must equal the parsed record's
    re-rendering (the magic and CRC fields are compared as rendered), so
    [decode] accepts exactly the image of {!encode}. One CRC and one
    render per line. *)

(** {2 Scanning a log} *)

type damage =
  | Corrupt of { line : int; offset : int; reason : string }
      (** Line [line] (0-based) at byte [offset] failed {!decode}. *)
  | Torn of { offset : int; bytes : int }
      (** [bytes] trailing bytes at [offset] lack a newline: a write torn
          mid-record by a crash. *)

type scan = {
  records : record list;  (** intact records, in file order *)
  damaged : damage list;  (** in file order *)
  units : int;  (** framed units seen: lines + torn tail — the [offered]
                    denominator downstream accounting must balance against *)
}

val scan_string : string -> scan
val scan_file : path:string -> (scan, string) result
(** [Error] only for filesystem read failures — damaged contents are
    data, not errors. A missing file scans as empty (a writer that never
    appended is indistinguishable from one that never existed). *)

(** {2 Replay} *)

type quarantine =
  | Damaged of damage
  | Gap of { seq : int; expected : int }
      (** The record's predecessor never arrived (lost or damaged): [seq]
          cannot be applied in order when [expected] is still missing.
          Replay halts at the first hole — later records may depend on the
          missing one — and quarantines everything after it. *)
  | Bad_op of { record : record; reason : string }
      (** The state rejected the operation (vertex out of range, self
          loop, deletion below zero, ...). The sequence slot is consumed;
          replay continues. *)

type replay_report = {
  offered : int;        (** framed units scanned *)
  applied : int;
  duplicates : int;     (** intact re-deliveries of an applied seq *)
  stale : int;          (** seq <= the snapshot floor *)
  quarantined : quarantine list;
  last_seq : int;       (** highest contiguously applied (or consumed)
                            seq; the writer resumes at [last_seq + 1] *)
}

val replay :
  base_seq:int ->
  apply:(record -> (unit, string) result) ->
  scan ->
  replay_report
(** Apply a scan on top of a snapshot holding everything up to and
    including [base_seq]. Records are sorted by [seq] and applied in
    order through [apply]; the report satisfies
    [applied + duplicates + stale + List.length quarantined = offered].
    Bumps the [stream.wal_*] registry counters. *)

val pp_quarantine : quarantine -> string

(** {2 Writing} *)

type writer

val create_writer : ?truncate:bool -> path:string -> next_seq:int -> unit -> writer
(** Open [path] for appending (creating it if missing; [~truncate:true]
    discards existing contents first — used after a compaction made the
    log redundant). The next appended record gets sequence [next_seq]. *)

val append : writer -> op -> u:int -> v:int -> w:float -> record
(** Write one record and flush it whole, so a kill between appends always
    lands on a record boundary; assigns and returns the next sequence.
    Bumps [stream.wal_appends]. *)

val close_writer : writer -> unit

(** {2 Deterministic damage} *)

module Adversary : sig
  type injections = {
    dropped : int;
    corrupted : int;
    duplicated : int;
    reordered : int;
  }

  val mangle : Dcs_util.Fault.t -> record list -> string * injections
  (** Serialize the records while injecting faults drawn from the policy,
      one independent decision chain per record (drop, then corrupt, then
      duplicate, then delay): drops omit the line entirely (a future
      gap), corruption flips one deterministically-chosen bit inside the
      line (never the newline, and never into one, so damage stays
      confined to its own frame), duplication re-emits the line
      immediately, and a delay holds the line back until after its
      successor (adjacent reorder). A zero-rate policy consumes nothing
      and returns the clean serialization. *)

  val tear : string -> at:int -> string
  (** Truncate a serialized log at byte [at] — the torn-write simulator
      E22 sweeps over every byte position of. *)
end
