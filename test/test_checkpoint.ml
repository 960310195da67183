(* Checkpoint layer: atomic snapshots survive round-trips bit-exactly,
   every kind of damage (bit flips, truncation, foreign signatures, stale
   generations) is rejected at load, and resumable sweeps reproduce the
   uninterrupted run's results byte-for-byte whatever happened to the
   snapshot in between. *)

open Dcs

let tmp_path () = Filename.temp_file "dcs_ckpt_test" ".ckpt"

let with_tmp f =
  let path = tmp_path () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let records_eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun (r1 : Checkpoint.record) (r2 : Checkpoint.record) ->
         r1.Checkpoint.index = r2.Checkpoint.index
         && r1.Checkpoint.payload = r2.Checkpoint.payload)
       a b

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- save/load round-trips --- *)

let test_roundtrip_basic () =
  with_tmp (fun path ->
      let records =
        [
          { Checkpoint.index = 0; payload = "alpha" };
          { Checkpoint.index = 3; payload = "" };
          { Checkpoint.index = 7; payload = "0x1.5bf0a8b145769p+1" };
        ]
      in
      Checkpoint.save ~path ~signature:"sig v1" records;
      match Checkpoint.load ~path ~signature:"sig v1" with
      | Ok got -> Alcotest.(check bool) "records round-trip" true (records_eq records got)
      | Error e -> Alcotest.failf "load failed: %s" e)

let test_roundtrip_binary_payloads () =
  (* Payloads with newlines, NULs and high bytes: the length-prefixed body
     format must carry them verbatim. *)
  with_tmp (fun path ->
      let records =
        [
          { Checkpoint.index = 1; payload = "line\nbreak\nand \000 nul" };
          { Checkpoint.index = 2; payload = String.init 64 (fun i -> Char.chr (255 - i)) };
        ]
      in
      Checkpoint.save ~path ~signature:"bin" records;
      match Checkpoint.load ~path ~signature:"bin" with
      | Ok got -> Alcotest.(check bool) "binary payloads intact" true (records_eq records got)
      | Error e -> Alcotest.failf "load failed: %s" e)

let test_save_overwrites_atomically () =
  with_tmp (fun path ->
      Checkpoint.save ~path ~signature:"s" [ { Checkpoint.index = 0; payload = "old" } ];
      Checkpoint.save ~path ~signature:"s" [ { Checkpoint.index = 0; payload = "new" } ];
      (match Checkpoint.load ~path ~signature:"s" with
      | Ok [ r ] -> Alcotest.(check string) "latest snapshot wins" "new" r.Checkpoint.payload
      | Ok rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)
      | Error e -> Alcotest.failf "load failed: %s" e);
      Alcotest.(check bool)
        "no scratch file left behind" false
        (Sys.file_exists (path ^ ".tmp")))

let test_save_rejects_bad_indices () =
  with_tmp (fun path ->
      Alcotest.(check bool) "non-increasing indices rejected" true
        (try
           Checkpoint.save ~path ~signature:"s"
             [
               { Checkpoint.index = 3; payload = "a" };
               { Checkpoint.index = 3; payload = "b" };
             ];
           false
         with Invalid_argument _ -> true);
      Alcotest.(check bool) "negative index rejected" true
        (try
           Checkpoint.save ~path ~signature:"s" [ { Checkpoint.index = -1; payload = "a" } ];
           false
         with Invalid_argument _ -> true))

(* --- rejection at load --- *)

let test_load_missing_file () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "dcs_ckpt_nonexistent_xyz.ckpt" in
  match Checkpoint.load ~path ~signature:"s" with
  | Ok _ -> Alcotest.fail "loading a missing file should fail"
  | Error _ -> ()

let test_load_signature_mismatch () =
  with_tmp (fun path ->
      Checkpoint.save ~path ~signature:"seed=1 eps=0.3"
        [ { Checkpoint.index = 0; payload = "x" } ];
      match Checkpoint.load ~path ~signature:"seed=2 eps=0.3" with
      | Ok _ -> Alcotest.fail "foreign signature must be rejected"
      | Error e ->
          let contains_signature =
            let le = String.length e and lw = String.length "signature" in
            let rec scan i =
              i + lw <= le && (String.sub e i lw = "signature" || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool) "diagnostic mentions signature" true
            contains_signature)

let test_load_garbage_file () =
  with_tmp (fun path ->
      write_file path "not a checkpoint at all\n";
      match Checkpoint.load ~path ~signature:"s" with
      | Ok _ -> Alcotest.fail "garbage must be rejected"
      | Error _ -> ())

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec scan i = i + ln <= lh && (String.sub hay i ln = needle || scan (i + 1)) in
  scan 0

let test_load_forensic_diagnostics () =
  (* Rejection alone is not enough to debug a damaged snapshot in the
     field: the diagnostic must say where (byte offset) and what
     (expected-vs-actual CRC, promised-vs-found length). *)
  with_tmp (fun path ->
      Checkpoint.save ~path ~signature:"diag"
        [ { Checkpoint.index = 0; payload = "forensic payload" } ];
      let raw = read_file path in
      let b = Bytes.of_string raw in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x40));
      write_file path (Bytes.to_string b);
      (match Checkpoint.load ~path ~signature:"diag" with
      | Ok _ -> Alcotest.fail "flipped body byte must be rejected"
      | Error e ->
          Alcotest.(check bool) ("byte offset in: " ^ e) true
            (contains e "byte offset");
          Alcotest.(check bool) ("expected crc in: " ^ e) true
            (contains e "expected crc");
          Alcotest.(check bool) ("actual crc in: " ^ e) true (contains e "actual"));
      write_file path (String.sub raw 0 (String.length raw - 3));
      match Checkpoint.load ~path ~signature:"diag" with
      | Ok _ -> Alcotest.fail "truncated body must be rejected"
      | Error e ->
          Alcotest.(check bool) ("byte offset in: " ^ e) true
            (contains e "byte offset");
          Alcotest.(check bool) ("promised length in: " ^ e) true
            (contains e "promises");
          Alcotest.(check bool) ("found length in: " ^ e) true (contains e "found"))

(* --- qcheck properties: roundtrip identity, bit flips, truncation --- *)

let record_list_gen =
  (* Strictly increasing indices with arbitrary (possibly binary) payloads. *)
  QCheck.Gen.(
    let payload = string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 40) in
    let* n = int_range 0 12 in
    let* gaps = list_repeat n (int_range 1 5) in
    let* payloads = list_repeat n payload in
    let _, idxs =
      List.fold_left (fun (acc, l) gap -> (acc + gap, (acc + gap) :: l)) (-1, []) gaps
    in
    return
      (List.map2
         (fun index payload -> { Checkpoint.index; payload })
         (List.rev idxs) payloads))

let record_list_arb =
  QCheck.make record_list_gen ~print:(fun rs ->
      String.concat ";"
        (List.map
           (fun (r : Checkpoint.record) ->
             Printf.sprintf "%d:%S" r.Checkpoint.index r.Checkpoint.payload)
           rs))

let prop_roundtrip_identity =
  QCheck.Test.make ~name:"checkpoint save/load is the identity" ~count:100
    record_list_arb (fun records ->
      with_tmp (fun path ->
          Checkpoint.save ~path ~signature:"prop" records;
          match Checkpoint.load ~path ~signature:"prop" with
          | Ok got -> records_eq records got
          | Error _ -> false))

let prop_single_bit_flip_rejected =
  QCheck.Test.make ~name:"any single-bit flip is rejected at load" ~count:100
    QCheck.(pair record_list_arb (pair small_nat small_nat))
    (fun (records, (byte_choice, bit)) ->
      with_tmp (fun path ->
          Checkpoint.save ~path ~signature:"prop" records;
          let raw = read_file path in
          let pos = byte_choice mod String.length raw in
          let b = Bytes.of_string raw in
          Bytes.set b pos
            (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8))));
          write_file path (Bytes.to_string b);
          match Checkpoint.load ~path ~signature:"prop" with
          | Ok _ -> false
          | Error _ -> true))

let prop_truncation_rejected =
  QCheck.Test.make ~name:"any truncation is rejected at load" ~count:100
    QCheck.(pair record_list_arb small_nat)
    (fun (records, cut_choice) ->
      with_tmp (fun path ->
          Checkpoint.save ~path ~signature:"prop" records;
          let raw = read_file path in
          (* Keep a strict prefix (possibly empty). *)
          let keep = cut_choice mod String.length raw in
          write_file path (String.sub raw 0 keep);
          match Checkpoint.load ~path ~signature:"prop" with
          | Ok _ -> false
          | Error _ -> true))

(* --- resumable sweeps --- *)

(* A deterministic trial: 2 draws off the task stream, encoded losslessly. *)
let trial ctx =
  let rng = ctx.Pool.rng in
  (Prng.bits64 rng, Prng.bits64 rng)

let encode (a, b) = Printf.sprintf "%Lx %Lx" a b

let decode s =
  try Scanf.sscanf s "%Lx %Lx" (fun a b -> Some (a, b))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let n = 19

let clean_run () =
  fst (Checkpoint.sweep ~encode ~decode ~rng:(Prng.create 401) ~n trial)

let test_sweep_interrupt_then_resume_identical () =
  with_tmp (fun path ->
      let expected = clean_run () in
      (match
         Checkpoint.sweep ~path ~signature:"s" ~resume:false ~block:4
           ~abort_after:6 ~encode ~decode ~rng:(Prng.create 401) ~n trial
       with
      | _ -> Alcotest.fail "abort_after should interrupt"
      | exception Checkpoint.Interrupted { completed_now; _ } ->
          Alcotest.(check int) "interrupted after two blocks" 8 completed_now);
      let vals, rep =
        Checkpoint.sweep ~path ~signature:"s" ~block:4 ~encode ~decode
          ~rng:(Prng.create 401) ~n trial
      in
      Alcotest.(check int) "trials restored from snapshot" 8 rep.Checkpoint.resumed;
      Alcotest.(check int) "only the rest recomputed" (n - 8) rep.Checkpoint.computed;
      Alcotest.(check bool) "resumed run bit-identical" true (vals = expected))

let test_sweep_corrupted_snapshot_recomputes_identical () =
  with_tmp (fun path ->
      let expected = clean_run () in
      let _ =
        Checkpoint.sweep ~path ~signature:"s" ~resume:false ~encode ~decode
          ~rng:(Prng.create 401) ~n trial
      in
      let raw = read_file path in
      let b = Bytes.of_string raw in
      let pos = Bytes.length b / 3 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
      write_file path (Bytes.to_string b);
      let vals, rep =
        Checkpoint.sweep ~path ~signature:"s" ~encode ~decode
          ~rng:(Prng.create 401) ~n trial
      in
      Alcotest.(check bool) "snapshot discarded" true (rep.Checkpoint.discarded <> None);
      Alcotest.(check int) "nothing resumed" 0 rep.Checkpoint.resumed;
      Alcotest.(check int) "everything recomputed" n rep.Checkpoint.computed;
      Alcotest.(check bool) "recomputed run bit-identical" true (vals = expected))

let test_sweep_undecodable_payload_discards_snapshot () =
  (* A snapshot whose payloads don't decode (e.g. written by an older
     encoding) must be discarded wholesale, not half-resumed. *)
  with_tmp (fun path ->
      let expected = clean_run () in
      Checkpoint.save ~path ~signature:"s"
        [
          { Checkpoint.index = 0; payload = "not hex at all" };
          { Checkpoint.index = 1; payload = "ffff eeee" };
        ];
      let vals, rep =
        Checkpoint.sweep ~path ~signature:"s" ~encode ~decode
          ~rng:(Prng.create 401) ~n trial
      in
      Alcotest.(check bool) "snapshot discarded" true (rep.Checkpoint.discarded <> None);
      Alcotest.(check int) "everything recomputed" n rep.Checkpoint.computed;
      Alcotest.(check bool) "results unaffected" true (vals = expected))

let test_sweep_out_of_range_index_discards_snapshot () =
  with_tmp (fun path ->
      let expected = clean_run () in
      Checkpoint.save ~path ~signature:"s"
        [ { Checkpoint.index = n + 5; payload = encode (1L, 2L) } ];
      let vals, rep =
        Checkpoint.sweep ~path ~signature:"s" ~encode ~decode
          ~rng:(Prng.create 401) ~n trial
      in
      Alcotest.(check bool) "snapshot discarded" true (rep.Checkpoint.discarded <> None);
      Alcotest.(check bool) "results unaffected" true (vals = expected))

let test_sweep_resume_false_starts_cold () =
  with_tmp (fun path ->
      let _ =
        Checkpoint.sweep ~path ~signature:"s" ~resume:false ~encode ~decode
          ~rng:(Prng.create 401) ~n trial
      in
      let _, rep =
        Checkpoint.sweep ~path ~signature:"s" ~resume:false ~encode ~decode
          ~rng:(Prng.create 401) ~n trial
      in
      Alcotest.(check int) "no trials resumed" 0 rep.Checkpoint.resumed;
      Alcotest.(check int) "all recomputed" n rep.Checkpoint.computed)

let test_sweep_supervision_composes_with_resume () =
  (* Crashing first attempts + an interrupt + a resume: the composition of
     every robustness layer still reproduces the clean run bit-for-bit. *)
  with_tmp (fun path ->
      let expected = clean_run () in
      let crashy ctx =
        if ctx.Pool.attempt = 0 && ctx.Pool.index mod 4 = 1 then failwith "flaky";
        trial ctx
      in
      (match
         Checkpoint.sweep ~path ~signature:"s" ~resume:false ~block:5
           ~abort_after:9 ~encode ~decode ~rng:(Prng.create 401) ~n crashy
       with
      | _ -> Alcotest.fail "abort_after should interrupt"
      | exception Checkpoint.Interrupted _ -> ());
      let vals, rep =
        Checkpoint.sweep ~path ~signature:"s" ~block:5 ~encode ~decode
          ~rng:(Prng.create 401) ~n crashy
      in
      Alcotest.(check bool) "some trials resumed" true (rep.Checkpoint.resumed > 0);
      Alcotest.(check bool) "crashes recovered" true (rep.Checkpoint.crashes > 0);
      Alcotest.(check bool) "supervised + resumed run bit-identical" true
        (vals = expected))

(* Kill-then-resume across domain counts, with exactly-once accounting:
   every trial is submitted to the pool once across the two halves (the
   restored ones are never resubmitted), checked against the
   [pool.supervised_tasks] Obs counter. The clean reference is computed
   before the counter is read, so its own n submissions do not count. *)
let supervised_tasks () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "pool.supervised_tasks")

let test_sweep_kill_at_every_block_boundary () =
  (* Kill exactly at block boundaries (the snapshot points, the only
     places a real kill can land between snapshots), resume at a different
     domain count, demand bit-equality with the clean run. *)
  let expected = clean_run () in
  let block = 5 in
  List.iter
    (fun abort_after ->
      with_tmp (fun path ->
          let before = supervised_tasks () in
          (match
             Domains_env.with_domains 4 (fun () ->
                 Checkpoint.sweep ~path ~signature:"kill" ~resume:false ~block
                   ~abort_after ~encode ~decode ~rng:(Prng.create 401) ~n trial)
           with
          | _ -> Alcotest.fail "abort_after should interrupt"
          | exception Checkpoint.Interrupted { completed_now; _ } ->
              Alcotest.(check int)
                (Printf.sprintf "killed at the %d-trial boundary" abort_after)
                abort_after completed_now);
          let vals, rep =
            Domains_env.with_domains 2 (fun () ->
                Checkpoint.sweep ~path ~signature:"kill" ~block ~encode ~decode
                  ~rng:(Prng.create 401) ~n trial)
          in
          Alcotest.(check int) "checkpointed trials restored" abort_after
            rep.Checkpoint.resumed;
          Alcotest.(check int) "only the rest recomputed" (n - abort_after)
            rep.Checkpoint.computed;
          Alcotest.(check bool) "kill + resume bit-identical" true
            (vals = expected);
          Alcotest.(check int) "each trial supervised exactly once" n
            (supervised_tasks () - before)))
    [ block; 2 * block; 3 * block ]

let test_sweep_crashes_kill_resume_exactly_once () =
  (* Crash injection on first attempts + a kill + a resume at another
     domain count: results still bit-identical, and restarts show up on
     the restart counters — never as duplicate supervised submissions. *)
  let expected = clean_run () in
  let crashy ctx =
    if ctx.Pool.attempt = 0 && ctx.Pool.index mod 5 = 2 then failwith "flaky";
    trial ctx
  in
  with_tmp (fun path ->
      let before = supervised_tasks () in
      (match
         Domains_env.with_domains 3 (fun () ->
             Checkpoint.sweep ~path ~signature:"crashy" ~resume:false ~block:4
               ~abort_after:8 ~encode ~decode ~rng:(Prng.create 401) ~n crashy)
       with
      | _ -> Alcotest.fail "abort_after should interrupt"
      | exception Checkpoint.Interrupted { completed_now; _ } ->
          Alcotest.(check int) "killed at a block boundary" 8 completed_now);
      let vals, rep =
        Domains_env.with_domains 1 (fun () ->
            Checkpoint.sweep ~path ~signature:"crashy" ~block:4 ~encode ~decode
              ~rng:(Prng.create 401) ~n crashy)
      in
      Alcotest.(check int) "restored" 8 rep.Checkpoint.resumed;
      Alcotest.(check bool) "crashes recovered in the resume" true
        (rep.Checkpoint.crashes > 0 && rep.Checkpoint.restarts > 0);
      Alcotest.(check bool) "crashy kill + resume bit-identical" true
        (vals = expected);
      Alcotest.(check int) "exactly-once despite restarts" n
        (supervised_tasks () - before))

let suite =
  [
    Alcotest.test_case "checkpoint: save/load round-trip" `Quick test_roundtrip_basic;
    Alcotest.test_case "checkpoint: binary payloads intact" `Quick
      test_roundtrip_binary_payloads;
    Alcotest.test_case "checkpoint: overwrite is atomic, no scratch left" `Quick
      test_save_overwrites_atomically;
    Alcotest.test_case "checkpoint: bad indices rejected at save" `Quick
      test_save_rejects_bad_indices;
    Alcotest.test_case "checkpoint: missing file is an error" `Quick
      test_load_missing_file;
    Alcotest.test_case "checkpoint: signature mismatch rejected" `Quick
      test_load_signature_mismatch;
    Alcotest.test_case "checkpoint: load failures carry forensic diagnostics"
      `Quick test_load_forensic_diagnostics;
    Alcotest.test_case "checkpoint: garbage file rejected" `Quick
      test_load_garbage_file;
    QCheck_alcotest.to_alcotest prop_roundtrip_identity;
    QCheck_alcotest.to_alcotest prop_single_bit_flip_rejected;
    QCheck_alcotest.to_alcotest prop_truncation_rejected;
    Alcotest.test_case "sweep: interrupt + resume bit-identical" `Quick
      test_sweep_interrupt_then_resume_identical;
    Alcotest.test_case "sweep: corrupted snapshot recomputed identically" `Quick
      test_sweep_corrupted_snapshot_recomputes_identical;
    Alcotest.test_case "sweep: undecodable payloads discard snapshot" `Quick
      test_sweep_undecodable_payload_discards_snapshot;
    Alcotest.test_case "sweep: out-of-range index discards snapshot" `Quick
      test_sweep_out_of_range_index_discards_snapshot;
    Alcotest.test_case "sweep: resume:false starts cold" `Quick
      test_sweep_resume_false_starts_cold;
    Alcotest.test_case "sweep: supervision composes with resume" `Quick
      test_sweep_supervision_composes_with_resume;
    Alcotest.test_case "sweep: kill at every block boundary + resume" `Quick
      test_sweep_kill_at_every_block_boundary;
    Alcotest.test_case "sweep: crashes + kill + resume exactly once" `Quick
      test_sweep_crashes_kill_resume_exactly_once;
  ]
