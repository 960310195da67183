(** CRC-32 message checksums for the fault-injection layer.

    Lossy channels can corrupt messages in flight; receivers detect this by
    framing every canonical encoding with a CRC-32 (IEEE 802.3, reflected
    polynomial 0xEDB88320). A CRC with a multi-term generator polynomial
    detects {e every} single-bit error and all burst errors up to 32 bits —
    the guarantee the qcheck property test exercises bit by bit. *)

val crc32 : string -> int
(** CRC-32 of the whole string, in [0, 2^32). [crc32 "123456789" =
    0xCBF43926] (the standard check value). One table lookup per byte:
    ~4 ns a byte on a 2-vCPU x86-64 host, where the bitwise loop took
    ~60. *)

val bits : int
(** Canonical size of a checksum field: 32. *)

(** {2 Checksummed frames}

    The canonical framing used everywhere a byte string must survive an
    unreliable medium — sketch deliveries over lossy channels
    ({!Dcs_graph.Serialize.ugraph_to_frame} frames a graph) and
    {!Checkpoint} snapshots on disk. The header carries the payload
    length and CRC-32, so the receiver rejects truncation (length
    mismatch) and every single-bit flip anywhere in the frame (header
    included: a damaged header fails to parse or to match). *)

val frame : string -> string
(** [frame payload] is ["DCS1 <len> <crc32-hex>\n" ^ payload]. *)

val unframe : string -> (string, string) result
(** Payload if the frame is intact, otherwise a diagnostic ([Error]).
    Length and checksum failures carry the body's byte offset within the
    frame plus the expected-vs-actual evidence (promised vs. found length;
    header CRC vs. CRC actually computed over the body), so a caller
    quarantining a damaged record can report {e where} and {e how} it
    failed, not just that it did. *)
