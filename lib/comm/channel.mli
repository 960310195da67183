(** One-way communication channel with bit metering.

    Every lower-bound reduction in the paper is a one-way protocol: Alice
    encodes her input into a message (a cut sketch, or simulated query
    answers) and Bob decodes. The channel records how many bits crossed so
    experiments can compare the measured message size against the
    information that was provably transferred (the decoded string). *)

type t

val create : unit -> t

val send : t -> bits:int -> unit
(** Record a message of [bits] bits from Alice to Bob. *)

val total_bits : t -> int

val rounds : t -> int
(** Number of [send] events. *)

(** {2 Lossy channels}

    A lossy channel is a metered channel over an adversarial medium: each
    transmission may be dropped (the receiver sees nothing) or silently
    corrupted (one bit of the payload is flipped — the receiver only finds
    out if the payload carries its own checksum, cf.
    {!Dcs_util.Checksum.unframe}). Fault decisions come from a
    {!Dcs_util.Fault.t}, so runs are reproducible; with
    {!Dcs_util.Fault.disabled} every transmission is delivered verbatim and
    the metering is identical to a plain channel.

    First sends and retransmissions are metered on separate counters so
    experiments can report retransmission overhead against the paper's
    first-send lower bounds. *)

type lossy

type delivery =
  | Received of string  (** possibly corrupted — verify the checksum *)
  | Dropped

val create_lossy : Dcs_util.Fault.t -> lossy

val transmit : lossy -> ?retransmission:bool -> bits:int -> string -> delivery
(** [transmit l ~bits payload] meters [bits] (the canonical encoded size of
    the message, checksum included) on the first-send or retransmission
    counter, then subjects [payload] to the fault policy. An empty payload
    can be dropped but never corrupted (there is nothing to flip). *)

val first_send_bits : lossy -> int
val retransmit_bits : lossy -> int

val deliveries : lossy -> int
(** Transmissions that returned [Received _]. *)

val lossy_drops : lossy -> int
val lossy_corruptions : lossy -> int

(** {2 Bounded reliable delivery}

    {!transmit_reliable} is the one bounded retransmission loop over
    {!transmit}, shared by the coordinator's sketch deliveries and the
    serving layer's request frames: a first send plus at most
    [max_retransmissions] re-sends, each delivery judged by [verify], and
    giving up is a {e typed} outcome carrying the loss accounting — never
    an unbounded spin, never a silent drop. Give-ups are metered on the
    [channel.gave_up] registry counter. *)

type give_up = {
  transmissions : int;        (** sends made: [1 + max_retransmissions] *)
  gu_drops : int;             (** of them, dropped in flight *)
  gu_corruptions : int;       (** of them, delivered but rejected by [verify] *)
}

val transmit_reliable :
  lossy ->
  verify:(attempt:int -> string -> bool) ->
  max_retransmissions:int ->
  bits:int ->
  string ->
  (string, give_up) result
(** Transmits [payload] (metering [bits] per send as {!transmit} does)
    until [verify ~attempt s] accepts the delivery [s] of 0-based send
    [attempt], or [max_retransmissions >= 0] re-sends are spent. [verify]
    is the receiver's check, e.g.
    [fun ~attempt:_ s -> Result.is_ok (Dcs_util.Checksum.unframe s)], and
    may keep its own accounting of what it rejects. [Ok] carries the
    accepted delivery. *)
