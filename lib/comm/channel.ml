module Metrics = Dcs_obs_core.Metrics

(* Registry-backed mirrors of the per-channel meters: every bit recorded on
   any channel instance also lands here, so E18 can cross-check the global
   accounting against the per-instance sums — they must agree exactly. *)
let m_bits = Metrics.counter "channel.bits"
let m_messages = Metrics.counter "channel.messages"
let m_first_send_bits = Metrics.counter "channel.first_send_bits"
let m_retransmit_bits = Metrics.counter "channel.retransmit_bits"
let m_deliveries = Metrics.counter "channel.deliveries"
let m_drops = Metrics.counter "channel.drops"
let m_corruptions = Metrics.counter "channel.corruptions_injected"
let m_gave_up = Metrics.counter "channel.gave_up"

type t = { mutable bits : int; mutable rounds : int }

let create () = { bits = 0; rounds = 0 }

let send t ~bits =
  if bits < 0 then invalid_arg "Channel.send: negative bits";
  t.bits <- t.bits + bits;
  t.rounds <- t.rounds + 1;
  Metrics.inc ~by:bits m_bits;
  Metrics.inc m_messages

let total_bits t = t.bits
let rounds t = t.rounds

module Fault = Dcs_util.Fault

type lossy = {
  fault : Fault.t;
  first : t;
  retrans : t;
  mutable delivered : int;
  mutable dropped : int;
  mutable corrupted : int;
}

type delivery = Received of string | Dropped

let create_lossy fault =
  {
    fault;
    first = create ();
    retrans = create ();
    delivered = 0;
    dropped = 0;
    corrupted = 0;
  }

let flip_one_bit fault payload =
  let b = Bytes.of_string payload in
  let pos = Fault.draw_int fault (8 * Bytes.length b) in
  let byte = pos / 8 and bit = pos mod 8 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
  Bytes.to_string b

let transmit l ?(retransmission = false) ~bits payload =
  send (if retransmission then l.retrans else l.first) ~bits;
  Metrics.inc ~by:bits
    (if retransmission then m_retransmit_bits else m_first_send_bits);
  if Fault.drops_message l.fault then begin
    l.dropped <- l.dropped + 1;
    Metrics.inc m_drops;
    Dropped
  end
  else begin
    l.delivered <- l.delivered + 1;
    Metrics.inc m_deliveries;
    if payload <> "" && Fault.corrupts_message l.fault then begin
      l.corrupted <- l.corrupted + 1;
      Metrics.inc m_corruptions;
      Received (flip_one_bit l.fault payload)
    end
    else Received payload
  end

type give_up = { transmissions : int; gu_drops : int; gu_corruptions : int }

let transmit_reliable l ~verify ~max_retransmissions ~bits payload =
  if max_retransmissions < 0 then
    invalid_arg "Channel.transmit_reliable: max_retransmissions must be >= 0";
  let rec go attempt drops corruptions =
    if attempt > max_retransmissions then begin
      Metrics.inc m_gave_up;
      Error
        {
          transmissions = max_retransmissions + 1;
          gu_drops = drops;
          gu_corruptions = corruptions;
        }
    end
    else
      match transmit l ~retransmission:(attempt > 0) ~bits payload with
      | Dropped -> go (attempt + 1) (drops + 1) corruptions
      | Received s ->
          if verify ~attempt s then Ok s
          else go (attempt + 1) drops (corruptions + 1)
  in
  go 0 0 0

let first_send_bits l = total_bits l.first
let retransmit_bits l = total_bits l.retrans
let deliveries l = l.delivered
let lossy_drops l = l.dropped
let lossy_corruptions l = l.corrupted
