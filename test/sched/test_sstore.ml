(* The content-addressed artifact store, with the damage suite ISSUE 9
   asks for: any bit flip or truncation of a spilled artifact must force a
   recompute — the store may lose an artifact, it must never serve a wrong
   one. Mirrors test/test_checkpoint.ml's damage properties one layer up,
   at the artifact-store boundary. *)

open Dcs
module Store = Sched.Store

let with_tmp_dir f =
  let dir = Filename.temp_file "dcs_sstore_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun x -> Sys.remove (Filename.concat dir x))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- key construction --- *)

let test_content_hash_sensitivity () =
  let h = Store.content_hash in
  Alcotest.(check string) "deterministic" (h "payload") (h "payload");
  Alcotest.(check int) "24 hex chars" 24 (String.length (h ""));
  Alcotest.(check bool) "one-byte change" true (h "payload" <> h "payloae");
  Alcotest.(check bool) "length matters" true (h "aa" <> h "aa\x00");
  String.iter
    (fun c ->
      Alcotest.(check bool) "filename-safe hex" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    (h "anything at all")

(* Keys name artifacts on disk, so their bytes are pinned. *)
let test_content_hash_pins () =
  List.iter
    (fun (s, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "hash of %d bytes" (String.length s))
        expected (Store.content_hash s))
    [
      ("", "48218226ff3cd4bf00000000");
      ("payload", "676050379f1673d4422c6a15");
      ("abcdefgh", "5962df58cdbe5b25aeef2a50");
      ("abcdefghijklmnopq", "9a82c588265aa8639c925619");
      (String.init 256 Char.chr, "14885de3f34f2af029058c73");
    ]

let test_action_key_sensitivity () =
  let base =
    Store.action_key ~name:"stage" ~code:"c1" ~fingerprint:1L
      ~inputs:[ "aa"; "bb" ]
  in
  let same =
    Store.action_key ~name:"stage" ~code:"c1" ~fingerprint:1L
      ~inputs:[ "aa"; "bb" ]
  in
  Alcotest.(check string) "deterministic" base same;
  List.iter
    (fun (what, key) ->
      Alcotest.(check bool) (what ^ " changes the key") true (key <> base))
    [
      ("name",
       Store.action_key ~name:"stage2" ~code:"c1" ~fingerprint:1L
         ~inputs:[ "aa"; "bb" ]);
      ("code",
       Store.action_key ~name:"stage" ~code:"c2" ~fingerprint:1L
         ~inputs:[ "aa"; "bb" ]);
      ("fingerprint",
       Store.action_key ~name:"stage" ~code:"c1" ~fingerprint:2L
         ~inputs:[ "aa"; "bb" ]);
      ("input hash",
       Store.action_key ~name:"stage" ~code:"c1" ~fingerprint:1L
         ~inputs:[ "aa"; "bc" ]);
      ("input order",
       Store.action_key ~name:"stage" ~code:"c1" ~fingerprint:1L
         ~inputs:[ "bb"; "aa" ]);
      ("input arity",
       Store.action_key ~name:"stage" ~code:"c1" ~fingerprint:1L
         ~inputs:[ "aa" ]);
    ]

(* --- memory tier --- *)

let test_roundtrip_and_miss () =
  let s = Store.create () in
  Alcotest.(check (option string)) "miss" None (Store.find s "nope");
  Store.put s "k1" "hello";
  Alcotest.(check (option string)) "hit" (Some "hello") (Store.find s "k1");
  Alcotest.(check int) "entries" 1 (Store.entries s)

(* --- damage properties (satellite: corruption forces recompute) --- *)

let payload_arb =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 60))

(* Spill [payload] under its own content hash and let [damage] mangle the
   file; a fresh store over the same directory must refuse to serve it. *)
let spill_damage_probe payload damage =
  with_tmp_dir (fun dir ->
      let key = Store.content_hash payload in
      let s1 = Store.create ~dir () in
      Store.put s1 key payload;
      let path = Store.artifact_path s1 key in
      damage path;
      let s2 = Store.create ~dir () in
      match Store.find s2 key with
      | None -> true
      | Some _ -> false (* served bytes off a damaged artifact *))

let prop_bit_flip_never_served =
  QCheck.Test.make ~name:"any single-bit flip forces a miss" ~count:100
    QCheck.(pair payload_arb (pair small_nat small_nat))
    (fun (payload, (byte_choice, bit)) ->
      spill_damage_probe payload (fun path ->
          let raw = read_file path in
          let pos = byte_choice mod String.length raw in
          let b = Bytes.of_string raw in
          Bytes.set b pos
            (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8))));
          write_file path (Bytes.to_string b)))

let prop_truncation_never_served =
  QCheck.Test.make ~name:"any truncation forces a miss" ~count:100
    QCheck.(pair payload_arb small_nat)
    (fun (payload, cut_choice) ->
      spill_damage_probe payload (fun path ->
          let raw = read_file path in
          write_file path (String.sub raw 0 (cut_choice mod String.length raw))))

(* --- end to end: a damaged artifact reruns its stage, never lies --- *)

let int_codec : int Sched.codec = Sched.marshal_codec ()

let test_damaged_artifact_recomputes () =
  with_tmp_dir (fun dir ->
      let chain dag =
        let a =
          Sched.stage dag ~name:"gen" ~codec:int_codec ~deps:[] (fun () -> 41)
        in
        let b =
          Sched.stage dag ~name:"use" ~codec:int_codec ~deps:[ Sched.dep a ]
            (fun () -> Sched.value dag a + 1)
        in
        (a, b)
      in
      let store1 = Store.create ~dir () in
      let cold = Sched.create ~store:store1 () in
      let a, _ = chain cold in
      ignore (Sched.run cold);
      let path = Store.artifact_path store1 (Sched.key_of cold a) in
      let intact = read_file path in
      let raw = Bytes.of_string intact in
      let mid = Bytes.length raw / 2 in
      Bytes.set raw mid (Char.chr (Char.code (Bytes.get raw mid) lxor 0x01));
      write_file path (Bytes.to_string raw);
      let corrupt = Obs.Metrics.counter "sched.store_corrupt_rejected" in
      let before = Obs.Metrics.counter_value corrupt in
      let damaged = Sched.create ~store:(Store.create ~dir ()) () in
      let _, b = chain damaged in
      let rep = Sched.run damaged in
      Alcotest.(check int) "rejected once" 1
        (Obs.Metrics.counter_value corrupt - before);
      Alcotest.(check int) "exactly the damaged stage reran" 1 rep.Sched.ran;
      Alcotest.(check int) "the dependent still hit" 1 rep.Sched.hits;
      Alcotest.(check int) "value correct, not garbage" 42
        (Sched.value damaged b);
      (* The recompute's write-through repaired the file in place. *)
      Alcotest.(check string) "file repaired byte-for-byte" intact
        (read_file path);
      let healed = Sched.create ~store:(Store.create ~dir ()) () in
      ignore (chain healed);
      let rep = Sched.run healed in
      Alcotest.(check int) "healed run is all hits" 0 rep.Sched.ran)

let suite =
  [
    Alcotest.test_case "content_hash sensitivity" `Quick
      test_content_hash_sensitivity;
    Alcotest.test_case "content_hash pinned bytes" `Quick test_content_hash_pins;
    Alcotest.test_case "action_key sensitivity" `Quick
      test_action_key_sensitivity;
    Alcotest.test_case "memory-tier roundtrip" `Quick test_roundtrip_and_miss;
    QCheck_alcotest.to_alcotest prop_bit_flip_never_served;
    QCheck_alcotest.to_alcotest prop_truncation_never_served;
    Alcotest.test_case "damaged artifact recomputes and repairs" `Quick
      test_damaged_artifact_recomputes;
  ]
