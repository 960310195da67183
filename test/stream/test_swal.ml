(* The write-ahead log: the codec accepts exactly the image of encode,
   every single-bit flip and every torn byte position is detected (never
   silently applied), replay is idempotent and order-insensitive with
   halt-at-first-gap semantics, and the adversary's books always balance:
   applied + duplicates + stale + |quarantined| = offered. *)

open Dcs

let record seq op u v w = { Wal.seq; op; u; v; w }

let records_of_n k =
  List.init k (fun i ->
      let op = if i mod 3 = 2 then Wal.Delete else Wal.Insert in
      record (i + 1) op (i mod 7) ((i + 1) mod 7) (float_of_int ((i mod 4) + 1)))

let serialize rs = String.concat "" (List.map Wal.encode rs)

(* Replay into a pure accumulator: the apply function accepts everything,
   so the report shape depends only on the log's structure. *)
let replay_accept ?(base_seq = 0) scan =
  let applied = ref [] in
  let report =
    Wal.replay ~base_seq
      ~apply:(fun r ->
        applied := r :: !applied;
        Ok ())
      scan
  in
  (report, List.rev !applied)

let check_conservation report =
  Alcotest.(check int) "applied + dup + stale + |quarantined| = offered"
    report.Wal.offered
    (report.Wal.applied + report.Wal.duplicates + report.Wal.stale
    + List.length report.Wal.quarantined)

(* --- codec --- *)

let test_roundtrip () =
  List.iter
    (fun r ->
      let line = Wal.encode r in
      Alcotest.(check bool) "ends with newline" true
        (line.[String.length line - 1] = '\n');
      match Wal.decode (String.sub line 0 (String.length line - 1)) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
      | Error e -> Alcotest.fail ("decode failed: " ^ e))
    [
      record 1 Wal.Insert 0 1 1.0;
      record 2 Wal.Delete 5 3 0.5;
      record 1000000 Wal.Insert 123 456 3.0;
      record 7 Wal.Insert 2 9 0.1;
    ]

let test_decode_rejects () =
  let bad s = Alcotest.(check bool) s true (Result.is_error (Wal.decode s)) in
  bad "";
  bad "garbage";
  bad "DCSW2 00000000 1 I 0 1 0x1p+0";
  let good = record 3 Wal.Insert 1 2 2.0 in
  let line = Wal.encode good in
  let line = String.sub line 0 (String.length line - 1) in
  bad (line ^ " extra");
  bad (String.uppercase_ascii line);
  (* A forged record with the right shape but the wrong checksum. *)
  bad "DCSW1 deadbeef 3 I 1 2 0x1p+1"

let test_decode_rejects_bad_fields () =
  (* Re-frame bodies with correct CRCs so only the semantic check fires. *)
  let framed body = Printf.sprintf "DCSW1 %08x %s" (Checksum.crc32 body) body in
  let bad name body =
    Alcotest.(check bool) name true (Result.is_error (Wal.decode (framed body)))
  in
  bad "seq zero" "0 I 0 1 0x1p+0";
  bad "negative vertex" "1 I -1 1 0x1p+0";
  bad "bad op" "1 X 0 1 0x1p+0";
  bad "zero weight" "1 I 0 1 0x0p+0";
  bad "negative weight" "1 I 0 1 -0x1p+0";
  bad "nan weight" "1 I 0 1 nan";
  bad "inf weight" "1 I 0 1 infinity";
  bad "field count" "1 I 0 1";
  (* Same record, non-canonical rendering: decimal weight, padded seq. *)
  bad "non-canonical weight" "1 I 0 1 1.0";
  bad "non-canonical seq" "01 I 0 1 0x1p+0";
  (* One per field: each parses to the record "1 I 0 1 0x1p+0" renders,
     so only the canonical-rendering check can reject it. *)
  let non_canonical name body =
    Alcotest.(check (result reject string))
      name (Error "record: non-canonical rendering")
      (Result.map ignore (Wal.decode (framed body)))
  in
  non_canonical "padded vertex" "1 I 00 1 0x1p+0";
  non_canonical "signed seq" "+1 I 0 1 0x1p+0";
  non_canonical "negative-zero vertex" "1 I -0 1 0x1p+0";
  List.iter
    (fun w -> non_canonical ("weight " ^ w) ("1 I 0 1 " ^ w))
    [ "0x1.0p+0"; "0X1P+0"; "0x1p0"; "0x2p-1"; "1" ]

let test_every_bit_flip_detected () =
  let r = record 42 Wal.Insert 3 5 2.0 in
  let line = Wal.encode r in
  let payload = String.length line - 1 in
  for i = 0 to payload - 1 do
    for b = 0 to 7 do
      let bytes = Bytes.of_string line in
      Bytes.set bytes i (Char.chr (Char.code line.[i] lxor (1 lsl b)));
      let flipped = Bytes.to_string bytes in
      if not (String.contains (String.sub flipped 0 payload) '\n') then
        match Wal.decode (String.sub flipped 0 payload) with
        | Ok r' ->
            if r' <> r then
              Alcotest.fail
                (Printf.sprintf "bit %d of byte %d yielded a different record"
                   b i)
        | Error _ -> ()
    done
  done

(* --- scanning --- *)

let test_scan_clean () =
  let rs = records_of_n 10 in
  let scan = Wal.scan_string (serialize rs) in
  Alcotest.(check int) "units" 10 scan.Wal.units;
  Alcotest.(check int) "records" 10 (List.length scan.Wal.records);
  Alcotest.(check int) "damaged" 0 (List.length scan.Wal.damaged);
  Alcotest.(check bool) "in order" true (scan.Wal.records = rs)

let test_scan_empty () =
  let scan = Wal.scan_string "" in
  Alcotest.(check int) "units" 0 scan.Wal.units;
  Alcotest.(check int) "records" 0 (List.length scan.Wal.records)

let test_scan_resyncs_after_damage () =
  let rs = records_of_n 3 in
  let raw =
    match rs with
    | [ a; b; c ] -> Wal.encode a ^ "this line is noise\n" ^ Wal.encode b ^ Wal.encode c
    | _ -> assert false
  in
  let scan = Wal.scan_string raw in
  Alcotest.(check int) "units" 4 scan.Wal.units;
  Alcotest.(check int) "records survive around damage" 3
    (List.length scan.Wal.records);
  match scan.Wal.damaged with
  | [ Wal.Corrupt { line = 1; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly one corrupt line at index 1"

let test_torn_tail_every_byte () =
  let rs = records_of_n 4 in
  let raw = serialize rs in
  let lens = List.map (fun r -> String.length (Wal.encode r)) rs in
  for at = 0 to String.length raw do
    let torn = Wal.Adversary.tear raw ~at in
    let scan = Wal.scan_string torn in
    (* How many whole records does a cut at [at] preserve? *)
    let rec whole acc = function
      | l :: tl when acc + l <= at -> 1 + whole (acc + l) tl
      | _ -> 0
    in
    let complete = whole 0 lens in
    let partial = if at > List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < complete) lens) then 1 else 0 in
    Alcotest.(check int)
      (Printf.sprintf "records at tear %d" at)
      complete
      (List.length scan.Wal.records);
    Alcotest.(check int)
      (Printf.sprintf "units at tear %d" at)
      (complete + partial) scan.Wal.units;
    match scan.Wal.damaged with
    | [] -> Alcotest.(check int) "no damage means clean cut" 0 partial
    | [ Wal.Torn { bytes; _ } ] ->
        Alcotest.(check int) "torn unit" 1 partial;
        Alcotest.(check bool) "torn bytes positive" true (bytes > 0)
    | _ -> Alcotest.fail "a tear damages at most the tail"
  done

(* --- replay --- *)

let test_replay_clean () =
  let rs = records_of_n 12 in
  let report, applied = replay_accept (Wal.scan_string (serialize rs)) in
  Alcotest.(check int) "applied" 12 report.Wal.applied;
  Alcotest.(check int) "last_seq" 12 report.Wal.last_seq;
  Alcotest.(check int) "nothing quarantined" 0 (List.length report.Wal.quarantined);
  Alcotest.(check bool) "in order" true (applied = rs);
  check_conservation report

let test_replay_dedup_and_reorder () =
  let rs = records_of_n 6 in
  let shuffled =
    match rs with
    | [ a; b; c; d; e; f ] -> [ b; a; c; c; e; d; f; a ]
    | _ -> assert false
  in
  let report, applied = replay_accept (Wal.scan_string (serialize shuffled)) in
  Alcotest.(check int) "applied once each" 6 report.Wal.applied;
  Alcotest.(check int) "duplicates" 2 report.Wal.duplicates;
  Alcotest.(check int) "last_seq" 6 report.Wal.last_seq;
  Alcotest.(check bool) "sequence order restored" true (applied = rs);
  check_conservation report

let test_replay_stale_below_snapshot () =
  let rs = records_of_n 8 in
  let report, applied = replay_accept ~base_seq:5 (Wal.scan_string (serialize rs)) in
  Alcotest.(check int) "stale" 5 report.Wal.stale;
  Alcotest.(check int) "applied" 3 report.Wal.applied;
  Alcotest.(check int) "last_seq" 8 report.Wal.last_seq;
  Alcotest.(check bool) "only the suffix applied" true
    (List.map (fun r -> r.Wal.seq) applied = [ 6; 7; 8 ]);
  check_conservation report

let test_replay_halts_at_gap () =
  let rs = records_of_n 9 in
  let with_hole = List.filter (fun r -> r.Wal.seq <> 4) rs in
  let report, _ = replay_accept (Wal.scan_string (serialize with_hole)) in
  Alcotest.(check int) "applied up to the hole" 3 report.Wal.applied;
  Alcotest.(check int) "last_seq stops before the hole" 3 report.Wal.last_seq;
  Alcotest.(check int) "everything after is quarantined" 5
    (List.length report.Wal.quarantined);
  List.iter
    (function
      | Wal.Gap { expected = 4; _ } -> ()
      | q -> Alcotest.fail ("expected a gap at 4, got " ^ Wal.pp_quarantine q))
    report.Wal.quarantined;
  check_conservation report

let test_replay_bad_op_consumes_slot () =
  let rs = records_of_n 5 in
  let poison = 3 in
  let applied = ref [] in
  let report =
    Wal.replay ~base_seq:0
      ~apply:(fun r ->
        if r.Wal.seq = poison then Error "rejected by the state"
        else begin
          applied := r.Wal.seq :: !applied;
          Ok ()
        end)
      (Wal.scan_string (serialize rs))
  in
  Alcotest.(check int) "applied" 4 report.Wal.applied;
  Alcotest.(check int) "last_seq covers the consumed slot" 5 report.Wal.last_seq;
  (match report.Wal.quarantined with
  | [ Wal.Bad_op { record; _ } ] ->
      Alcotest.(check int) "poisoned seq" poison record.Wal.seq
  | _ -> Alcotest.fail "expected exactly one Bad_op");
  Alcotest.(check bool) "later records still applied" true
    (List.rev !applied = [ 1; 2; 4; 5 ]);
  check_conservation report

let test_replay_damaged_quarantined () =
  let rs = records_of_n 4 in
  let raw = serialize rs ^ "partial tail without newline" in
  let report, _ = replay_accept (Wal.scan_string raw) in
  Alcotest.(check int) "offered counts the tail" 5 report.Wal.offered;
  (match report.Wal.quarantined with
  | [ Wal.Damaged (Wal.Torn _) ] -> ()
  | _ -> Alcotest.fail "expected the torn tail quarantined");
  check_conservation report

(* --- writer --- *)

let with_temp_dir f =
  let dir = Filename.temp_file "dcs_wal" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_writer_roundtrip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.create_writer ~path ~next_seq:1 () in
      let appended =
        List.map
          (fun i ->
            Wal.append w (if i mod 2 = 0 then Wal.Insert else Wal.Delete)
              ~u:i ~v:(i + 1) ~w:1.0)
          [ 0; 1; 2; 3 ]
      in
      Alcotest.(check (list int)) "sequence numbers advance" [ 1; 2; 3; 4 ]
        (List.map (fun r -> r.Wal.seq) appended);
      Wal.close_writer w;
      (* Appending re-opens where the log left off. *)
      let w2 = Wal.create_writer ~path ~next_seq:5 () in
      let r5 = Wal.append w2 Wal.Insert ~u:9 ~v:8 ~w:2.0 in
      Wal.close_writer w2;
      match Wal.scan_file ~path with
      | Error e -> Alcotest.fail e
      | Ok scan ->
          Alcotest.(check int) "all records scanned" 5 (List.length scan.Wal.records);
          Alcotest.(check bool) "identical" true
            (scan.Wal.records = appended @ [ r5 ]))

let test_writer_truncate () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.create_writer ~path ~next_seq:1 () in
      ignore (Wal.append w Wal.Insert ~u:0 ~v:1 ~w:1.0);
      Wal.close_writer w;
      let w = Wal.create_writer ~truncate:true ~path ~next_seq:8 () in
      let r = Wal.append w Wal.Insert ~u:2 ~v:3 ~w:1.0 in
      Wal.close_writer w;
      Alcotest.(check int) "numbering continues across truncation" 8 r.Wal.seq;
      match Wal.scan_file ~path with
      | Error e -> Alcotest.fail e
      | Ok scan ->
          Alcotest.(check int) "only the new record" 1 (List.length scan.Wal.records))

let test_scan_missing_file () =
  match Wal.scan_file ~path:"/nonexistent/dcs/wal.log" with
  | Ok scan -> Alcotest.(check int) "missing scans empty" 0 scan.Wal.units
  | Error e -> Alcotest.fail e

(* --- adversary --- *)

let qcheck_adversary_conservation =
  QCheck.Test.make ~count:60
    ~name:"mangled logs: applied + dup + stale + |quarantined| = offered"
    QCheck.(
      quad (int_range 0 40) (int_bound 10_000) (int_bound 3) (int_bound 3))
    (fun (k, seed, c10, d10) ->
      let rs = records_of_n k in
      let policy =
        Fault.policy
          ~drop:(float_of_int d10 /. 10.)
          ~corrupt:(float_of_int c10 /. 10.)
          ~timeout:0.2 ~lie:0.2 ()
      in
      let f = Fault.create policy (Prng.create seed) in
      let raw, inj = Wal.Adversary.mangle f rs in
      let scan = Wal.scan_string raw in
      (* Whole lines in, whole lines out: units are exactly the surviving
         emissions, and corruption never splits or merges frames. *)
      let emitted = k - inj.Wal.Adversary.dropped + inj.Wal.Adversary.duplicated in
      if scan.Wal.units <> emitted then
        QCheck.Test.fail_reportf "units %d <> emitted %d" scan.Wal.units emitted;
      let report, _ = replay_accept scan in
      check_conservation report;
      (* Damage is blamed on injected corruption alone: every flip is
         caught (CRC-32 detects all single-bit errors), and a corrupted
         record that was also duplicated damages both of its emissions. *)
      let damaged = List.length scan.Wal.damaged in
      inj.Wal.Adversary.corrupted <= damaged
      && damaged <= inj.Wal.Adversary.corrupted + inj.Wal.Adversary.duplicated)

let qcheck_zero_rate_adversary_is_identity =
  QCheck.Test.make ~count:30 ~name:"zero-rate adversary is the identity"
    QCheck.(pair (int_range 0 30) (int_bound 10_000))
    (fun (k, seed) ->
      let rs = records_of_n k in
      let f = Fault.create Fault.no_faults (Prng.create seed) in
      let raw, inj = Wal.Adversary.mangle f rs in
      raw = serialize rs
      && inj.Wal.Adversary.dropped = 0
      && inj.Wal.Adversary.corrupted = 0
      && inj.Wal.Adversary.duplicated = 0
      && inj.Wal.Adversary.reordered = 0)

let suite =
  [
    Alcotest.test_case "encode/decode roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "decode rejects malformed lines" `Quick test_decode_rejects;
    Alcotest.test_case "decode rejects bad fields" `Quick
      test_decode_rejects_bad_fields;
    Alcotest.test_case "every single-bit flip is detected" `Quick
      test_every_bit_flip_detected;
    Alcotest.test_case "scan: clean log" `Quick test_scan_clean;
    Alcotest.test_case "scan: empty log" `Quick test_scan_empty;
    Alcotest.test_case "scan: resyncs after a damaged line" `Quick
      test_scan_resyncs_after_damage;
    Alcotest.test_case "scan: torn tail at every byte" `Quick
      test_torn_tail_every_byte;
    Alcotest.test_case "replay: clean" `Quick test_replay_clean;
    Alcotest.test_case "replay: dedup and reorder" `Quick
      test_replay_dedup_and_reorder;
    Alcotest.test_case "replay: stale below the snapshot floor" `Quick
      test_replay_stale_below_snapshot;
    Alcotest.test_case "replay: halts at the first gap" `Quick
      test_replay_halts_at_gap;
    Alcotest.test_case "replay: a rejected op consumes its slot" `Quick
      test_replay_bad_op_consumes_slot;
    Alcotest.test_case "replay: damage is quarantined, never dropped" `Quick
      test_replay_damaged_quarantined;
    Alcotest.test_case "writer: append, reopen, scan" `Quick test_writer_roundtrip;
    Alcotest.test_case "writer: truncate keeps numbering" `Quick
      test_writer_truncate;
    Alcotest.test_case "scan: missing file is empty" `Quick test_scan_missing_file;
    QCheck_alcotest.to_alcotest qcheck_adversary_conservation;
    QCheck_alcotest.to_alcotest qcheck_zero_rate_adversary_is_identity;
  ]
