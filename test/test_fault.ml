open Dcs

(* --- Checksum --- *)

let test_crc32_check_value () =
  (* The standard CRC-32 check value (reflected, poly 0xEDB88320). *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Checksum.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Checksum.crc32 "");
  Alcotest.(check int) "32 bits" 32 Checksum.bits

(* The bitwise reflected CRC-32 loop, one shift per bit: a test-only
   reference every [Checksum.crc32] value must match. *)
let crc32_bitwise s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun c ->
      crc := !crc lxor Char.code c;
      for _ = 1 to 8 do
        if !crc land 1 = 1 then crc := (!crc lsr 1) lxor 0xEDB88320
        else crc := !crc lsr 1
      done)
    s;
  !crc lxor 0xFFFFFFFF

let prop_crc32_matches_bitwise =
  QCheck.Test.make ~name:"crc32 equals the bitwise reference loop" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 512) Gen.char)
    (fun s -> Checksum.crc32 s = crc32_bitwise s)

(* Frame bytes pinned on fixed payloads: frames travel between processes
   and live on disk, so a header that moves is a format change. *)
let test_frame_pins () =
  let header payload expected =
    Alcotest.(check string)
      (Printf.sprintf "frame of %d bytes" (String.length payload))
      (expected ^ payload) (Checksum.frame payload)
  in
  header "" "DCS1 0 00000000\n";
  header "a" "DCS1 1 e8b7be43\n";
  header "123456789" "DCS1 9 cbf43926\n";
  header "hello, lossy world\nwith a second line" "DCS1 37 90a1ceed\n";
  header (String.init 256 Char.chr) "DCS1 256 29058c73\n";
  header (String.make 1000 'x') "DCS1 1000 3b41c9e6\n"

let test_frame_roundtrip () =
  let payload = "hello, lossy world\nwith a second line" in
  match Checksum.unframe (Checksum.frame payload) with
  | Ok p -> Alcotest.(check string) "payload back" payload p
  | Error e -> Alcotest.failf "unframe rejected a clean frame: %s" e

let test_frame_rejects_garbage () =
  let bad s =
    match Checksum.unframe s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "no header newline";
  bad "DCS0 5 00000000\nhello";
  bad "DCS1 5\nhello";
  bad "DCS1 x 00000000\nhello";
  bad "DCS1 4 00000000\nhello";
  (* right length, wrong crc *)
  bad "DCS1 5 00000000\nhello"

(* --- Fault --- *)

let test_fault_policy_validates () =
  Alcotest.check_raises "rate > 1"
    (Invalid_argument "Fault.policy: drop rate must be in [0, 1]") (fun () ->
      ignore (Fault.policy ~drop:1.5 ()));
  Alcotest.check_raises "rate < 0"
    (Invalid_argument "Fault.policy: lie rate must be in [0, 1]") (fun () ->
      ignore (Fault.policy ~lie:(-0.1) ()))

let test_fault_disabled_inert () =
  let f = Fault.disabled in
  Alcotest.(check bool) "not active" false (Fault.active f);
  for _ = 1 to 100 do
    Alcotest.(check bool) "never drops" false (Fault.drops_message f);
    Alcotest.(check bool) "never corrupts" false (Fault.corrupts_message f);
    Alcotest.(check bool) "never times out" false (Fault.times_out f);
    Alcotest.(check bool) "never lies" false (Fault.lies f)
  done;
  Alcotest.(check int) "nothing injected" 0 (Fault.total_injected f)

let test_fault_rate_one_always_fires () =
  let rng = Prng.create 1 in
  let f = Fault.create (Fault.policy ~drop:1.0 ~timeout:1.0 ()) rng in
  Alcotest.(check bool) "active" true (Fault.active f);
  for _ = 1 to 20 do
    Alcotest.(check bool) "drops" true (Fault.drops_message f);
    Alcotest.(check bool) "times out" true (Fault.times_out f);
    Alcotest.(check bool) "never corrupts" false (Fault.corrupts_message f)
  done;
  let c = Fault.counts f in
  Alcotest.(check int) "20 drops" 20 c.Fault.drops;
  Alcotest.(check int) "20 timeouts" 20 c.Fault.timeouts;
  Alcotest.(check int) "0 corruptions" 0 c.Fault.corruptions;
  Alcotest.(check int) "total" 40 (Fault.total_injected f)

let test_fault_split_deterministic () =
  let events f = Array.init 200 (fun _ -> Fault.drops_message f) in
  let mk seed =
    Fault.create (Fault.policy ~drop:0.3 ()) (Prng.create seed)
  in
  let a = events (Fault.split (mk 7) 4) in
  let b = events (Fault.split (mk 7) 4) in
  Alcotest.(check bool) "same index, same events" true (a = b);
  let c = events (Fault.split (mk 7) 5) in
  Alcotest.(check bool) "different index, different events" true (a <> c)

let test_fault_intermediate_rate_counts () =
  let rng = Prng.create 2 in
  let f = Fault.create (Fault.policy ~corrupt:0.5 ()) rng in
  let fired = ref 0 in
  for _ = 1 to 1000 do
    if Fault.corrupts_message f then incr fired
  done;
  Alcotest.(check int) "counter matches observations" !fired
    (Fault.counts f).Fault.corruptions;
  Alcotest.(check bool) "roughly half" true (!fired > 400 && !fired < 600)

(* --- Retry --- *)

let test_retry_first_try () =
  let out = Retry.with_budget ~budget:5 (fun ~attempt:_ -> Some 42) in
  Alcotest.(check (option int)) "value" (Some 42) out.Retry.value;
  Alcotest.(check int) "one attempt" 1 out.Retry.attempts;
  Alcotest.(check int) "no backoff" 0 out.Retry.backoff_units

let test_retry_backoff_arithmetic () =
  (* Succeeds on the 4th call (attempt 3): failed attempts 0,1,2 were each
     retried, so backoff = 2^0 + 2^1 + 2^2 = 7. *)
  let out =
    Retry.with_budget ~budget:8 (fun ~attempt ->
        if attempt >= 3 then Some attempt else None)
  in
  Alcotest.(check (option int)) "value" (Some 3) out.Retry.value;
  Alcotest.(check int) "attempts" 4 out.Retry.attempts;
  Alcotest.(check int) "backoff 7" 7 out.Retry.backoff_units

let test_retry_exhausts_budget () =
  let calls = ref 0 in
  let out =
    Retry.with_budget ~budget:4 (fun ~attempt:_ ->
        incr calls;
        None)
  in
  Alcotest.(check (option int)) "no value" None out.Retry.value;
  Alcotest.(check int) "budget calls" 4 !calls;
  Alcotest.(check int) "attempts = budget" 4 out.Retry.attempts;
  (* The last failure is final, not retried: 2^0 + 2^1 + 2^2. *)
  Alcotest.(check int) "backoff" 7 out.Retry.backoff_units;
  Alcotest.check_raises "budget >= 1"
    (Invalid_argument "Retry.with_budget: budget must be >= 1") (fun () ->
      ignore (Retry.with_budget ~budget:0 (fun ~attempt:_ -> Some ())))

let test_jittered_wait_bounds () =
  let rng = Prng.create 11 in
  (* attempt 0 waits in [1, base]; the exponential clamps at cap. *)
  for attempt = 0 to 12 do
    let w = Retry.jittered_wait ~rng ~base:2 ~cap:10 ~attempt in
    let hi = min 10 (2 * (1 lsl attempt)) in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d wait %d in [1, %d]" attempt w hi)
      true
      (w >= 1 && w <= hi)
  done;
  (* rng is not advanced: the same stream position replays the schedule. *)
  let a = Retry.jittered_wait ~rng ~base:1 ~cap:64 ~attempt:5 in
  let b = Retry.jittered_wait ~rng ~base:1 ~cap:64 ~attempt:5 in
  Alcotest.(check int) "pure per (stream, attempt)" a b

let test_jittered_backoff_schedule () =
  let rng = Prng.create 12 in
  (* Success on the first call: no waits at all. *)
  let out =
    Retry.with_jittered_backoff ~budget:5 ~base:1 ~cap:64 ~rng (fun ~attempt:_ -> Some 1)
  in
  Alcotest.(check int) "no backoff" 0 out.Retry.backoff_units;
  (* All failures: exactly the sum of the per-attempt jittered waits for
     the retried attempts (the final failure is not retried). *)
  let out = Retry.with_jittered_backoff ~budget:4 ~base:2 ~cap:8 ~rng (fun ~attempt:_ -> None) in
  let expected = ref 0 in
  for a = 0 to 2 do
    expected := !expected + Retry.jittered_wait ~rng ~base:2 ~cap:8 ~attempt:a
  done;
  Alcotest.(check (option unit)) "no value" None out.Retry.value;
  Alcotest.(check int) "attempts = budget" 4 out.Retry.attempts;
  Alcotest.(check int) "backoff = replayed waits" !expected out.Retry.backoff_units;
  Alcotest.check_raises "budget >= 1"
    (Invalid_argument "Retry.with_jittered_backoff: budget must be >= 1")
    (fun () ->
      ignore
        (Retry.with_jittered_backoff ~budget:0 ~base:1 ~cap:64 ~rng
           (fun ~attempt:_ -> Some ())))

let test_majority_recovers_truth () =
  (* 2 honest votes out of 3 beat one lie. *)
  let votes = [| Some 9; Some 4; Some 9 |] in
  (match Retry.majority ~k:3 (fun i -> votes.(i)) with
  | Some (v, c) ->
      Alcotest.(check int) "winner" 9 v;
      Alcotest.(check int) "votes" 2 c
  | None -> Alcotest.fail "majority abstained");
  (* Abstentions don't vote; a lone answer among Nones wins. *)
  (match Retry.majority ~k:3 (fun i -> if i = 1 then Some 5 else None) with
  | Some (v, c) ->
      Alcotest.(check int) "lone answer" 5 v;
      Alcotest.(check int) "one vote" 1 c
  | None -> Alcotest.fail "lone answer lost");
  Alcotest.(check bool) "all abstain" true
    (Retry.majority ~k:4 (fun _ -> None) = None)

let test_majority_tie_first_seen () =
  let votes = [| Some 1; Some 2; Some 2; Some 1 |] in
  match Retry.majority ~k:4 (fun i -> votes.(i)) with
  | Some (v, _) -> Alcotest.(check int) "first-seen wins" 1 v
  | None -> Alcotest.fail "tie abstained"

(* --- Lossy channel --- *)

let test_lossy_no_faults_transparent () =
  let l = Channel.create_lossy Fault.disabled in
  for i = 1 to 10 do
    match Channel.transmit l ~bits:100 "payload" with
    | Channel.Received p ->
        Alcotest.(check string) "verbatim" "payload" p;
        Alcotest.(check int) "first-send metered" (100 * i)
          (Channel.first_send_bits l)
    | Channel.Dropped -> Alcotest.fail "dropped without faults"
  done;
  Alcotest.(check int) "no retransmissions" 0 (Channel.retransmit_bits l);
  Alcotest.(check int) "all delivered" 10 (Channel.deliveries l)

let test_lossy_drop_rate_one () =
  let rng = Prng.create 3 in
  let l = Channel.create_lossy (Fault.create (Fault.policy ~drop:1.0 ()) rng) in
  for _ = 1 to 5 do
    Alcotest.(check bool) "dropped" true
      (Channel.transmit l ~bits:64 "x" = Channel.Dropped)
  done;
  Alcotest.(check int) "drops counted" 5 (Channel.lossy_drops l);
  Alcotest.(check int) "bits still paid" (5 * 64) (Channel.first_send_bits l);
  Alcotest.(check int) "nothing delivered" 0 (Channel.deliveries l)

let test_lossy_corrupt_flips_one_bit () =
  let rng = Prng.create 4 in
  let l =
    Channel.create_lossy (Fault.create (Fault.policy ~corrupt:1.0 ()) rng)
  in
  let payload = "abcdefgh" in
  (match Channel.transmit l ~bits:64 payload with
  | Channel.Received p ->
      Alcotest.(check bool) "differs" true (p <> payload);
      Alcotest.(check int) "same length" (String.length payload) (String.length p);
      let flipped = ref 0 in
      String.iteri
        (fun i c ->
          let x = Char.code c lxor Char.code payload.[i] in
          let rec popcount v = if v = 0 then 0 else (v land 1) + popcount (v lsr 1) in
          flipped := !flipped + popcount x)
        p;
      Alcotest.(check int) "exactly one bit" 1 !flipped
  | Channel.Dropped -> Alcotest.fail "corruption is not a drop");
  (* An empty payload has nothing to flip. *)
  (match Channel.transmit l ~bits:0 "" with
  | Channel.Received p -> Alcotest.(check string) "empty survives" "" p
  | Channel.Dropped -> Alcotest.fail "empty payload dropped");
  Alcotest.(check int) "one corruption" 1 (Channel.lossy_corruptions l)

let test_lossy_retransmission_metered_separately () =
  let l = Channel.create_lossy Fault.disabled in
  ignore (Channel.transmit l ~bits:100 "a");
  ignore (Channel.transmit l ~retransmission:true ~bits:100 "a");
  ignore (Channel.transmit l ~retransmission:true ~bits:100 "a");
  Alcotest.(check int) "first-send" 100 (Channel.first_send_bits l);
  Alcotest.(check int) "retransmit" 200 (Channel.retransmit_bits l)

(* --- transmit_reliable: the bounded retransmission loop --- *)

let accept_any ~attempt:_ _ = true

let gave_up_counter () = Obs.Metrics.counter "channel.gave_up"

let test_reliable_clean_first_try () =
  let before = Obs.Metrics.counter_value (gave_up_counter ()) in
  let l = Channel.create_lossy Fault.disabled in
  (match
     Channel.transmit_reliable l ~verify:accept_any ~max_retransmissions:3
       ~bits:80 "frame"
   with
  | Ok p -> Alcotest.(check string) "delivered verbatim" "frame" p
  | Error _ -> Alcotest.fail "gave up without faults");
  Alcotest.(check int) "one send" 80 (Channel.first_send_bits l);
  Alcotest.(check int) "no retransmissions" 0 (Channel.retransmit_bits l);
  Alcotest.(check int) "gave_up not bumped" before
    (Obs.Metrics.counter_value (gave_up_counter ()))

let test_reliable_gives_up_typed () =
  let before = Obs.Metrics.counter_value (gave_up_counter ()) in
  let rng = Prng.create 21 in
  let l = Channel.create_lossy (Fault.create (Fault.policy ~drop:1.0 ()) rng) in
  (match
     Channel.transmit_reliable l ~verify:accept_any ~max_retransmissions:3
       ~bits:64 "x"
   with
  | Ok _ -> Alcotest.fail "delivered through a dead link"
  | Error gu ->
      Alcotest.(check int) "first send + 3 re-sends" 4 gu.Channel.transmissions;
      Alcotest.(check int) "all dropped" 4 gu.Channel.gu_drops;
      Alcotest.(check int) "none corrupted" 0 gu.Channel.gu_corruptions);
  Alcotest.(check int) "first-send metered once" 64 (Channel.first_send_bits l);
  Alcotest.(check int) "re-sends metered" (3 * 64) (Channel.retransmit_bits l);
  Alcotest.(check int) "channel.gave_up bumped once" (before + 1)
    (Obs.Metrics.counter_value (gave_up_counter ()));
  Alcotest.check_raises "bound must be nonnegative"
    (Invalid_argument
       "Channel.transmit_reliable: max_retransmissions must be >= 0") (fun () ->
      ignore
        (Channel.transmit_reliable l ~verify:accept_any
           ~max_retransmissions:(-1) ~bits:1 "x"))

let test_reliable_verify_rejects_corruption () =
  let rng = Prng.create 22 in
  let l =
    Channel.create_lossy (Fault.create (Fault.policy ~corrupt:1.0 ()) rng)
  in
  let framed = Checksum.frame "payload" in
  (* Every delivery is corrupted and the CRC check refuses each one. *)
  (match
     Channel.transmit_reliable l
       ~verify:(fun ~attempt:_ s -> Result.is_ok (Checksum.unframe s))
       ~max_retransmissions:2
       ~bits:(8 * String.length framed)
       framed
   with
  | Ok _ -> Alcotest.fail "verify accepted a corrupted frame"
  | Error gu ->
      Alcotest.(check int) "transmissions" 3 gu.Channel.transmissions;
      Alcotest.(check int) "all failed verify" 3 gu.Channel.gu_corruptions);
  (* A verify that accepts anything takes a corrupted delivery as-is. *)
  match
    Channel.transmit_reliable l ~verify:accept_any ~max_retransmissions:2
      ~bits:8 "abc"
  with
  | Ok p -> Alcotest.(check bool) "corrupted accepted" true (p <> "abc")
  | Error _ -> Alcotest.fail "unverified delivery refused"

let test_reliable_max_zero_single_shot () =
  let rng = Prng.create 23 in
  (* drop 0.5: with zero retransmissions each call is a single coin flip. *)
  let l = Channel.create_lossy (Fault.create (Fault.policy ~drop:0.5 ()) rng) in
  let oks = ref 0 and give_ups = ref 0 in
  for _ = 1 to 200 do
    match
      Channel.transmit_reliable l ~verify:accept_any ~max_retransmissions:0
        ~bits:8 "b"
    with
    | Ok _ -> incr oks
    | Error gu ->
        Alcotest.(check int) "single transmission" 1 gu.Channel.transmissions;
        incr give_ups
  done;
  Alcotest.(check int) "every call resolved" 200 (!oks + !give_ups);
  Alcotest.(check int) "no retransmit bits" 0 (Channel.retransmit_bits l);
  Alcotest.(check bool) "both outcomes occur" true (!oks > 0 && !give_ups > 0)

(* --- qcheck properties (ISSUE satellite: single-bit detection, budget) --- *)

let flip_bit s i =
  let b = Bytes.of_string s in
  let byte = i / 8 and bit = i mod 8 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
  Bytes.to_string b

(* CRC-32 detects every single-bit flip anywhere in a framed graph
   encoding — a header flip breaks the parse or the recorded length/crc,
   a body flip breaks the checksum. *)
let prop_frame_detects_every_single_bit_flip =
  QCheck.Test.make ~name:"frame detects every single-bit flip (ugraph + digraph)"
    ~count:12
    QCheck.(pair (int_range 2 7) small_nat)
    (fun (n, seed) ->
      let rng = Prng.create (seed + 1) in
      let g = Generators.erdos_renyi_connected rng ~n ~p:0.5 in
      let dg = Generators.random_digraph rng ~n ~p:0.5 ~max_weight:4.0 in
      let check_frame frame decode_ok =
        let bits = 8 * String.length frame in
        decode_ok frame
        &&
        let ok = ref true in
        for i = 0 to bits - 1 do
          if decode_ok (flip_bit frame i) then ok := false
        done;
        !ok
      in
      check_frame
        (Serialize.ugraph_to_frame g)
        (fun s ->
          match Serialize.ugraph_of_frame s with
          | Ok g' -> Ugraph.equal g g'
          | Error _ -> false)
      && check_frame
           (Checksum.frame (Serialize.digraph_to_string dg))
           (fun s ->
             match Result.bind (Checksum.unframe s) Serialize.digraph_of_string with
             | Ok d' -> Digraph.equal dg d'
             | Error _ -> false))

(* Retry never exceeds its budget, whatever the failure pattern. *)
let prop_retry_within_budget =
  QCheck.Test.make ~name:"retry attempts never exceed the budget" ~count:200
    QCheck.(pair (int_range 1 10) (int_range 0 15))
    (fun (budget, first_success) ->
      let calls = ref 0 in
      let out =
        Retry.with_budget ~budget (fun ~attempt ->
            incr calls;
            if attempt >= first_success then Some attempt else None)
      in
      !calls <= budget
      && out.Retry.attempts = !calls
      && (out.Retry.value <> None) = (first_success < budget))

(* Jittered backoff: same budget guarantee, plus the wait-sum cap. *)
let prop_jittered_backoff_within_budgets =
  QCheck.Test.make
    ~name:"jittered backoff never exceeds attempt or backoff budgets"
    ~count:200
    QCheck.(
      quad (int_range 1 8) (int_range 0 12) (int_range 1 4) (int_range 1 32))
    (fun (budget, first_success, base, cap) ->
      let rng = Prng.create (budget + (31 * first_success) + (977 * cap)) in
      let calls = ref 0 in
      let out =
        Retry.with_jittered_backoff ~budget ~base ~cap ~rng (fun ~attempt ->
            incr calls;
            if attempt >= first_success then Some attempt else None)
      in
      !calls <= budget
      && out.Retry.attempts = !calls
      && (out.Retry.value <> None) = (first_success < budget)
      && out.Retry.backoff_units >= 0
      && out.Retry.backoff_units <= (budget - 1) * cap)

(* Bounded reliable delivery: bounded sends, and every loss accounted. *)
let prop_transmit_reliable_bounded =
  QCheck.Test.make
    ~name:"transmit_reliable sends at most 1 + max_retransmissions"
    ~count:200
    QCheck.(
      quad (int_range 0 5) (float_range 0.0 1.0) (float_range 0.0 1.0)
        (int_range 0 1_000_000))
    (fun (max_retransmissions, drop, corrupt, seed) ->
      let rng = Prng.create seed in
      let l =
        Channel.create_lossy (Fault.create (Fault.policy ~drop ~corrupt ()) rng)
      in
      let framed = Checksum.frame "prop payload" in
      match
        Channel.transmit_reliable l
          ~verify:(fun ~attempt:_ s -> Result.is_ok (Checksum.unframe s))
          ~max_retransmissions
          ~bits:(8 * String.length framed)
          framed
      with
      | Ok p -> Result.is_ok (Checksum.unframe p)
      | Error gu ->
          gu.Channel.transmissions = max_retransmissions + 1
          && gu.Channel.gu_drops + gu.Channel.gu_corruptions
             = gu.Channel.transmissions)

let suite =
  [
    Alcotest.test_case "checksum: crc32 check value" `Quick test_crc32_check_value;
    Alcotest.test_case "frame: roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame: rejects garbage" `Quick test_frame_rejects_garbage;
    Alcotest.test_case "fault: policy validates" `Quick test_fault_policy_validates;
    Alcotest.test_case "fault: disabled is inert" `Quick test_fault_disabled_inert;
    Alcotest.test_case "fault: rate 1 always fires" `Quick test_fault_rate_one_always_fires;
    Alcotest.test_case "fault: split deterministic" `Quick test_fault_split_deterministic;
    Alcotest.test_case "fault: counters match events" `Quick test_fault_intermediate_rate_counts;
    Alcotest.test_case "retry: first try" `Quick test_retry_first_try;
    Alcotest.test_case "retry: backoff arithmetic" `Quick test_retry_backoff_arithmetic;
    Alcotest.test_case "retry: exhausts budget" `Quick test_retry_exhausts_budget;
    Alcotest.test_case "retry: jittered wait bounds" `Quick test_jittered_wait_bounds;
    Alcotest.test_case "retry: jittered backoff schedule" `Quick test_jittered_backoff_schedule;
    Alcotest.test_case "majority: recovers truth" `Quick test_majority_recovers_truth;
    Alcotest.test_case "majority: tie first-seen" `Quick test_majority_tie_first_seen;
    Alcotest.test_case "lossy: no faults transparent" `Quick test_lossy_no_faults_transparent;
    Alcotest.test_case "lossy: drop rate 1" `Quick test_lossy_drop_rate_one;
    Alcotest.test_case "lossy: corrupt flips one bit" `Quick test_lossy_corrupt_flips_one_bit;
    Alcotest.test_case "lossy: retransmission metered" `Quick test_lossy_retransmission_metered_separately;
    Alcotest.test_case "reliable: clean first try" `Quick test_reliable_clean_first_try;
    Alcotest.test_case "reliable: typed give-up" `Quick test_reliable_gives_up_typed;
    Alcotest.test_case "reliable: verify rejects corruption" `Quick test_reliable_verify_rejects_corruption;
    Alcotest.test_case "reliable: zero bound single shot" `Quick test_reliable_max_zero_single_shot;
    QCheck_alcotest.to_alcotest prop_frame_detects_every_single_bit_flip;
    QCheck_alcotest.to_alcotest prop_retry_within_budget;
    QCheck_alcotest.to_alcotest prop_jittered_backoff_within_budgets;
    QCheck_alcotest.to_alcotest prop_transmit_reliable_bounded;
    QCheck_alcotest.to_alcotest prop_crc32_matches_bitwise;
    Alcotest.test_case "frame: pinned bytes" `Quick test_frame_pins;
  ]
