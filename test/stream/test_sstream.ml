(* The streaming sketch state: streamed ingest is indistinguishable —
   bit for bit — from batch-building the final graph; re-freeze policy
   changes performance, never content; rejected operations mutate
   nothing; and snapshot + WAL recovery reproduces the exact pre-kill
   state at every record boundary and every torn byte. *)

open Dcs

let n = 9

(* Interpret an arbitrary integer triple list as a *valid* op sequence:
   a deterministic shadow of per-arc weights decides whether each step
   inserts or deletes, so generated streams exercise both without ever
   tripping the below-zero guard (tested separately). All weights are
   small integers — the exact-float-sum convention every enforced
   battery uses. *)
let ops_of_spec spec =
  let weights = Hashtbl.create 64 in
  let get u v = Option.value ~default:0.0 (Hashtbl.find_opt weights (u, v)) in
  List.map
    (fun (a, b, c) ->
      let u = abs a mod n in
      let v0 = abs b mod n in
      let v = if v0 = u then (v0 + 1) mod n else v0 in
      let w = float_of_int ((abs c mod 3) + 1) in
      let op =
        if abs c mod 4 = 0 && get u v >= w then Wal.Delete else Wal.Insert
      in
      let signed = match op with Wal.Insert -> w | Wal.Delete -> -.w in
      Hashtbl.replace weights (u, v) (get u v +. signed);
      (op, u, v, w))
    spec

let final_digraph ops =
  let weights = Hashtbl.create 64 in
  let get u v = Option.value ~default:0.0 (Hashtbl.find_opt weights (u, v)) in
  List.iter
    (fun (op, u, v, w) ->
      let signed = match op with Wal.Insert -> w | Wal.Delete -> -.w in
      Hashtbl.replace weights (u, v) (get u v +. signed))
    ops;
  let g = Digraph.create n in
  Hashtbl.iter (fun (u, v) w -> if w > 0.0 then Digraph.add_edge g u v w) weights;
  g

let ok = function Ok x -> x | Error e -> Alcotest.fail e
let push t op ~u ~v ~w = ok (Stream_sketch.apply t ~op ~u ~v ~w)

let feed ?refreeze ops =
  let t = Stream_sketch.create ?refreeze ~n ~seed:42 () in
  List.iter (fun (op, u, v, w) -> push t op ~u ~v ~w) ops;
  t

(* A healthy mix of inserts, deletes and full cancellations. *)
let demo_spec =
  [
    (0, 1, 1); (1, 2, 2); (2, 3, 0); (0, 1, 4); (3, 4, 1); (1, 2, 4);
    (4, 5, 2); (0, 1, 0); (5, 6, 3); (2, 3, 4); (6, 7, 1); (0, 1, 8);
    (7, 8, 2); (1, 0, 1); (8, 0, 3); (3, 4, 0); (2, 1, 2); (5, 4, 1);
  ]

let cuts_of seed k =
  let rng = Prng.create seed in
  List.init k (fun _ -> Cut.random rng ~n)

(* --- streamed vs batch --- *)

let test_streamed_equals_batch_graph () =
  let ops = ops_of_spec demo_spec in
  let t = feed ops in
  let batch = Csr.of_digraph (final_digraph ops) in
  Alcotest.(check int64) "fingerprints agree" (Csr.fingerprint batch)
    (Stream_sketch.fingerprint t);
  List.iter
    (fun cut ->
      Alcotest.(check (float 0.0)) "cut values agree bit for bit"
        (Csr.cut_value batch cut)
        (Csr.cut_value (Stream_sketch.frozen t) cut))
    (cuts_of 77 24)

let test_streamed_equals_batch_sketches () =
  let ops = ops_of_spec demo_spec in
  let t = feed ops in
  let g = final_digraph ops in
  let streamed = Stream_sketch.exact_sketch t in
  let batch = Exact_sketch.create (Csr.to_digraph (Csr.of_digraph g)) in
  Alcotest.(check int) "exact sketch sizes agree" batch.Sketch.size_bits
    streamed.Sketch.size_bits;
  let s_imb =
    Imbalance_sketch.create (Prng.create 9) ~eps:0.2 ~beta:2.0
      (Csr.to_digraph (Stream_sketch.frozen t))
  in
  let b_imb = Imbalance_sketch.create (Prng.create 9) ~eps:0.2 ~beta:2.0 g in
  Alcotest.(check int) "imbalance sketch sizes agree" b_imb.Sketch.size_bits
    s_imb.Sketch.size_bits;
  List.iter
    (fun cut ->
      Alcotest.(check (float 0.0)) "exact sketch queries agree"
        (batch.Sketch.query cut) (streamed.Sketch.query cut);
      Alcotest.(check (float 0.0)) "imbalance sketch queries agree bit for bit"
        (b_imb.Sketch.query cut) (s_imb.Sketch.query cut))
    (cuts_of 78 16)

let test_imbalances_maintained () =
  let ops = ops_of_spec demo_spec in
  let t = feed ops in
  let expected = Imbalance_sketch.imbalances (final_digraph ops) in
  Alcotest.(check bool) "incremental imbalances exact" true
    (Imbalance_sketch.imbalances (Csr.to_digraph (Stream_sketch.frozen t)) = expected)

(* --- re-freeze policy: a performance knob, never a content knob --- *)

let policies =
  [
    ("rebuild", Stream_sketch.Rebuild);
    ("delta-1", Stream_sketch.Delta_buffer { compact_threshold = 1 });
    ("delta-4", Stream_sketch.Delta_buffer { compact_threshold = 4 });
    ("delta-64", Stream_sketch.Delta_buffer { compact_threshold = 64 });
  ]

let test_policy_invariance () =
  let ops = ops_of_spec demo_spec in
  let reference = Stream_sketch.digest (feed ~refreeze:Stream_sketch.Rebuild ops) in
  List.iter
    (fun (name, refreeze) ->
      let t = feed ~refreeze ops in
      Alcotest.(check bool)
        (Printf.sprintf "digest under %s" name)
        true
        (Int64.equal reference (Stream_sketch.digest t)))
    policies

let test_delta_threshold_respected () =
  let threshold = 3 in
  let t =
    Stream_sketch.create
      ~refreeze:(Stream_sketch.Delta_buffer { compact_threshold = threshold })
      ~n ~seed:42 ()
  in
  List.iter
    (fun (op, u, v, w) ->
      push t op ~u ~v ~w;
      Alcotest.(check bool) "overlay bounded" true
        (Stream_sketch.delta_pairs t <= threshold))
    (ops_of_spec demo_spec)

(* --- rejection --- *)

let test_rejects_leave_state_untouched () =
  let t = feed (ops_of_spec demo_spec) in
  let before = Stream_sketch.digest t in
  let expect_reject name op ~u ~v ~w =
    (match Stream_sketch.apply t ~op ~u ~v ~w with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (name ^ ": expected a rejection"));
    Alcotest.(check bool) (name ^ ": state untouched") true
      (Int64.equal before (Stream_sketch.digest t))
  in
  expect_reject "below zero" Wal.Delete ~u:0 ~v:1 ~w:1e9;
  expect_reject "out of range" Wal.Insert ~u:0 ~v:n ~w:1.0;
  expect_reject "self loop" Wal.Insert ~u:3 ~v:3 ~w:1.0;
  expect_reject "bad weight" Wal.Insert ~u:0 ~v:1 ~w:Float.nan;
  expect_reject "zero weight" Wal.Insert ~u:0 ~v:1 ~w:0.0

let test_apply_reports_rejects () =
  let t = Stream_sketch.create ~n ~seed:1 () in
  (match Stream_sketch.apply t ~op:Wal.Delete ~u:0 ~v:1 ~w:1.0 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "deleting from empty must fail");
  Alcotest.(check int) "nothing applied" 0 (Stream_sketch.arcs t)

(* --- durability --- *)

let with_temp_dir f =
  let dir = Filename.temp_file "dcs_stream" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun g -> Sys.remove (Filename.concat dir g)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let journal_op j (op, u, v, w) =
  match op with
  | Wal.Insert -> Stream_sketch.journal_insert j ~u ~v ~w
  | Wal.Delete -> Stream_sketch.journal_delete j ~u ~v ~w

let journal_with ?refreeze ?checkpoint_every ?(n = n) ?(seed = 42) dir ops =
  let j, _ = ok (Stream_sketch.open_journal ?refreeze ?checkpoint_every ~dir ~n ~seed ()) in
  List.iter (fun op -> ok (journal_op j op)) ops;
  j

let take k l = List.filteri (fun i _ -> i < k) l

let test_checkpoint_restore () =
  with_temp_dir (fun dir ->
      let snapshot = Filename.concat dir "snap.ckpt" in
      let ops = ops_of_spec demo_spec in
      let t = feed ops in
      Stream_sketch.checkpoint t ~path:snapshot;
      let { Stream_sketch.state; report; snapshot_seq } =
        ok
          (Stream_sketch.recover ~n ~seed:42 ~snapshot
             ~wal:(Filename.concat dir "absent.log") ())
      in
      Alcotest.(check int) "nothing replayed" 0 report.Wal.offered;
      Alcotest.(check int) "floor" 0 snapshot_seq;
      Alcotest.(check bool) "restored state is byte-identical" true
        (Int64.equal (Stream_sketch.digest t) (Stream_sketch.digest state)))

let test_kill_at_every_record_boundary () =
  let ops = ops_of_spec demo_spec in
  let k = List.length ops in
  (* Reference digests: digest after i ops of one uninterrupted journal. *)
  let reference = Array.make (k + 1) Int64.zero in
  with_temp_dir (fun dir ->
      let j = journal_with dir [] in
      reference.(0) <- Stream_sketch.digest (Stream_sketch.journal_state j);
      List.iteri
        (fun i op ->
          ok (journal_op j op);
          reference.(i + 1) <- Stream_sketch.digest (Stream_sketch.journal_state j))
        ops;
      Stream_sketch.close_journal j);
  (* Kill after every prefix: a journal stopped dead after i records
     (every append is flushed whole, so closing without a checkpoint is
     exactly a boundary kill) must recover to reference.(i). *)
  for i = 0 to k do
    with_temp_dir (fun dir ->
        let j = journal_with dir (take i ops) in
        Stream_sketch.close_journal j;
        let j2, report = ok (Stream_sketch.open_journal ~dir ~n ~seed:42 ()) in
        Alcotest.(check int)
          (Printf.sprintf "kill at %d: replay applied" i)
          i report.Wal.applied;
        Alcotest.(check int) "no quarantine on a clean kill" 0
          (List.length report.Wal.quarantined);
        Alcotest.(check bool)
          (Printf.sprintf "kill at %d: digest reproduced" i)
          true
          (Int64.equal reference.(i)
             (Stream_sketch.digest (Stream_sketch.journal_state j2)));
        Stream_sketch.close_journal j2)
  done

let test_torn_write_recovery () =
  let ops = ops_of_spec demo_spec in
  let k = List.length ops in
  with_temp_dir (fun dir ->
      (* A full log, then a tear at an awkward byte: recovery lands on the
         last intact boundary, reports the torn tail, and fresh appends
         after the recovery checkpoint are clean. *)
      let j = journal_with dir ops in
      Stream_sketch.close_journal j;
      let wal_path = Filename.concat dir "wal.log" in
      let raw = read_file wal_path in
      (* Tear mid-way through the last record. *)
      let at = String.length raw - 3 in
      write_file wal_path (Wal.Adversary.tear raw ~at);
      let j2, report = ok (Stream_sketch.open_journal ~dir ~n ~seed:42 ()) in
      Alcotest.(check int) "one record lost to the tear" (k - 1)
        report.Wal.applied;
      (match report.Wal.quarantined with
      | [ Wal.Damaged (Wal.Torn _) ] -> ()
      | _ -> Alcotest.fail "expected exactly the torn tail quarantined");
      (* The recovered journal keeps working: the open-time checkpoint
         cleared the damaged tail out of the log's future. *)
      ok (Stream_sketch.journal_insert j2 ~u:0 ~v:1 ~w:1.0);
      Stream_sketch.close_journal j2;
      let j3, report3 = ok (Stream_sketch.open_journal ~dir ~n ~seed:42 ()) in
      Alcotest.(check int) "clean replay after recovery" 1 report3.Wal.applied;
      Alcotest.(check int) "no residual quarantine" 0
        (List.length report3.Wal.quarantined);
      Stream_sketch.close_journal j3)

let test_periodic_checkpoint_compacts () =
  with_temp_dir (fun dir ->
      let j = journal_with ~checkpoint_every:4 dir (ops_of_spec demo_spec) in
      let digest = Stream_sketch.digest (Stream_sketch.journal_state j) in
      Stream_sketch.close_journal j;
      (* The log only holds the tail since the last auto-checkpoint. *)
      let scan = ok (Wal.scan_file ~path:(Filename.concat dir "wal.log")) in
      Alcotest.(check bool) "log compacted" true (scan.Wal.units < 4);
      let j2, _ = ok (Stream_sketch.open_journal ~dir ~n ~seed:42 ()) in
      Alcotest.(check bool) "compacted recovery byte-identical" true
        (Int64.equal digest (Stream_sketch.digest (Stream_sketch.journal_state j2)));
      Stream_sketch.close_journal j2)

(* Each kind of rejection is decided before the write-ahead append: the op
   returns [Error], bumps [stream.rejects], takes no sequence slot and
   leaves nothing in the log for replay to quarantine. *)
let test_journal_rejects_before_logging () =
  let rejects () = Obs.Metrics.(counter_value (counter "stream.rejects")) in
  with_temp_dir (fun dir ->
      let j = journal_with dir [ (Wal.Insert, 0, 1, 1.0) ] in
      let t = Stream_sketch.journal_state j in
      List.iteri
        (fun i (name, op) ->
          let digest, seq, r = (Stream_sketch.digest t, Stream_sketch.applied_seq t, rejects ()) in
          Alcotest.(check bool) (name ^ ": rejected") true (Result.is_error (journal_op j op));
          Alcotest.(check (triple int64 int int)) (name ^ ": state, slot, meter") (digest, seq, r + 1)
            (Stream_sketch.digest t, Stream_sketch.applied_seq t, rejects ());
          ok (journal_op j (Wal.Insert, i + 1, i + 2, 1.0));
          Alcotest.(check int) (name ^ ": next op takes the next slot") (seq + 1)
            (Stream_sketch.applied_seq t))
        [
          ("NaN weight", (Wal.Insert, 0, 1, Float.nan));
          ("negative weight", (Wal.Insert, 0, 1, -1.0));
          ("negative vertex", (Wal.Insert, -1, 1, 1.0));
          ("out-of-range arc", (Wal.Insert, 0, n, 1.0));
          ("self-loop", (Wal.Insert, 2, 2, 1.0));
          ("over-deletion", (Wal.Delete, 0, 1, 2.0));
        ];
      let expected = Stream_sketch.digest t in
      Stream_sketch.close_journal j;
      let j2, report = ok (Stream_sketch.open_journal ~dir ~n ~seed:42 ()) in
      Alcotest.(check (pair int int)) "only accepted ops logged, all replayed" (7, 7)
        (report.Wal.offered, report.Wal.applied);
      Alcotest.(check (list string)) "nothing quarantined" []
        (List.map Wal.pp_quarantine report.Wal.quarantined);
      Alcotest.(check int64) "reopen reproduces the state" expected
        (Stream_sketch.digest (Stream_sketch.journal_state j2));
      Stream_sketch.close_journal j2)

(* --- golden pin of the ingest engine ---

   A seeded 400-op stream of dyadic weights on 24 vertices under each
   re-freeze policy, pinned before the live-graph refactor: the per-op
   [delta_pairs] trace, compaction and freeze counts, the final content
   (8 cuts, fingerprint, imbalances, arcs) and the same after a journal's
   snapshot + replay recovery, plus the MD5 of the WAL and snapshot files
   that journal leaves on disk. [digest] is left out. *)

let golden_ops =
  let rng = Prng.create 1822 in
  let shadow = Hashtbl.create 97 in
  List.init 400 (fun _ ->
      let u = Prng.int rng 24 in
      let v0 = Prng.int rng 23 in
      let v = if v0 >= u then v0 + 1 else v0 in
      let w = float_of_int (1 + Prng.int rng 6) /. 2. in
      let h = Option.value ~default:0.0 (Hashtbl.find_opt shadow (u, v)) in
      let op, w =
        if h > 0.0 && Prng.bernoulli rng 0.35 then
          (Wal.Delete, if Prng.bernoulli rng 0.5 then h else Float.min h w)
        else (Wal.Insert, w)
      in
      Hashtbl.replace shadow (u, v) (if op = Wal.Insert then h +. w else h -. w);
      (op, u, v, w))

let mix_in h x = Prng.mix64 (Int64.logxor h x)

(* Cuts first, while the state may still hold stale arcs. *)
let golden_content t =
  let cut i =
    Csr.cut_value (Stream_sketch.frozen t) (Cut.random (Prng.create (1823 + i)) ~n:24)
  in
  let cuts = List.init 8 (fun i -> Printf.sprintf "%h" (cut i)) in
  let fp = Stream_sketch.fingerprint t in
  Printf.sprintf "fp=%016Lx imb=%016Lx arcs=%d cuts=%s" fp
    (Array.fold_left
       (fun h x -> mix_in h (Int64.bits_of_float x))
       0L
       (Imbalance_sketch.imbalances (Csr.to_digraph (Stream_sketch.frozen t))))
    (Stream_sketch.arcs t)
    (String.concat "," cuts)

let golden_run (name, refreeze) =
  let count c = Obs.Metrics.(counter_value (counter c)) in
  let now () = (count "stream.compactions", count "csr.builds") in
  let since (c0, b0) =
    Printf.sprintf "compactions=%d builds=%d" (count "stream.compactions" - c0)
      (count "csr.builds" - b0)
  in
  let start = now () in
  let t = Stream_sketch.create ~refreeze ~n:24 ~seed:99 () in
  let trace = ref 0L in
  List.iter
    (fun (op, u, v, w) ->
      push t op ~u ~v ~w;
      trace := mix_in !trace (Int64.of_int (Stream_sketch.delta_pairs t)))
    golden_ops;
  let moved = since start in
  let stream = Printf.sprintf "trace=%016Lx %s" !trace moved in
  let live = golden_content t in
  let files, recovered =
    with_temp_dir (fun dir ->
        Stream_sketch.close_journal
          (journal_with ~refreeze ~checkpoint_every:128 ~n:24 ~seed:99 dir golden_ops);
        let md5 f = Digest.to_hex (Digest.file (Filename.concat dir f)) in
        let files =
          Printf.sprintf "wal.log=%s snapshot.ckpt=%s" (md5 "wal.log")
            (md5 "snapshot.ckpt")
        in
        let start = now () in
        let { Stream_sketch.state; report; snapshot_seq } =
          ok
            (Stream_sketch.recover ~refreeze ~n:24 ~seed:99
               ~snapshot:(Filename.concat dir "snapshot.ckpt")
               ~wal:(Filename.concat dir "wal.log") ())
        in
        let moved = since start in
        ( files,
          Printf.sprintf "floor=%d replayed=%d %s %s" snapshot_seq report.Wal.applied
            moved (golden_content state) ))
  in
  List.map (fun s -> name ^ " " ^ s) [ stream; live; recovered; files ]

(* Any change to these values is a behaviour change of the ingest engine. *)
let golden_expected =
  [
    "rebuild trace=0000000000000000 compactions=400 builds=401";
    "rebuild fp=2848daa50d9be6aa imb=7fe4c293d7c15092 arcs=268 cuts=0x1.42p+7,0x1.4ep+7,0x1.32p+7,0x1.35p+7,0x1.29p+7,0x1.32p+7,0x1.32p+7,0x1.22p+7";
    "rebuild floor=384 replayed=16 compactions=17 builds=18 fp=2848daa50d9be6aa imb=7fe4c293d7c15092 arcs=268 cuts=0x1.42p+7,0x1.4ep+7,0x1.32p+7,0x1.35p+7,0x1.29p+7,0x1.32p+7,0x1.32p+7,0x1.22p+7";
    "rebuild wal.log=beb0ef647354250342f7dfb0c731d5e6 snapshot.ckpt=e1b71c31a4f1ac33bf1179cabec1dce2";
    "delta-1 trace=e37f3e952abfb6a1 compactions=200 builds=201";
    "delta-1 fp=2848daa50d9be6aa imb=7fe4c293d7c15092 arcs=268 cuts=0x1.42p+7,0x1.4ep+7,0x1.32p+7,0x1.35p+7,0x1.29p+7,0x1.32p+7,0x1.32p+7,0x1.22p+7";
    "delta-1 floor=384 replayed=16 compactions=9 builds=10 fp=2848daa50d9be6aa imb=7fe4c293d7c15092 arcs=268 cuts=0x1.42p+7,0x1.4ep+7,0x1.32p+7,0x1.35p+7,0x1.29p+7,0x1.32p+7,0x1.32p+7,0x1.22p+7";
    "delta-1 wal.log=beb0ef647354250342f7dfb0c731d5e6 snapshot.ckpt=e1b71c31a4f1ac33bf1179cabec1dce2";
    "delta-4 trace=663d1cc5a8d8a89d compactions=80 builds=81";
    "delta-4 fp=2848daa50d9be6aa imb=7fe4c293d7c15092 arcs=268 cuts=0x1.42p+7,0x1.4ep+7,0x1.32p+7,0x1.35p+7,0x1.29p+7,0x1.32p+7,0x1.32p+7,0x1.22p+7";
    "delta-4 floor=384 replayed=16 compactions=4 builds=5 fp=2848daa50d9be6aa imb=7fe4c293d7c15092 arcs=268 cuts=0x1.42p+7,0x1.4ep+7,0x1.32p+7,0x1.35p+7,0x1.29p+7,0x1.32p+7,0x1.32p+7,0x1.22p+7";
    "delta-4 wal.log=beb0ef647354250342f7dfb0c731d5e6 snapshot.ckpt=e1b71c31a4f1ac33bf1179cabec1dce2";
    "delta-64 trace=2f1a6ebc53cb650f compactions=5 builds=6";
    "delta-64 fp=2848daa50d9be6aa imb=7fe4c293d7c15092 arcs=268 cuts=0x1.42p+7,0x1.4ep+7,0x1.32p+7,0x1.35p+7,0x1.29p+7,0x1.32p+7,0x1.32p+7,0x1.22p+7";
    "delta-64 floor=384 replayed=16 compactions=1 builds=2 fp=2848daa50d9be6aa imb=7fe4c293d7c15092 arcs=268 cuts=0x1.42p+7,0x1.4ep+7,0x1.32p+7,0x1.35p+7,0x1.29p+7,0x1.32p+7,0x1.32p+7,0x1.22p+7";
    "delta-64 wal.log=beb0ef647354250342f7dfb0c731d5e6 snapshot.ckpt=e1b71c31a4f1ac33bf1179cabec1dce2";
  ]

let test_golden_ingest () =
  Alcotest.(check (list string)) "golden ingest" golden_expected
    (List.concat_map golden_run policies)

(* --- properties --- *)

let spec_gen =
  QCheck.(list_of_size (Gen.int_range 0 60) (triple small_nat small_nat small_nat))

let qcheck_streamed_equals_batch =
  QCheck.Test.make ~count:60
    ~name:"any insert/delete stream decodes identically to the batch build"
    spec_gen
    (fun spec ->
      let ops = ops_of_spec spec in
      let t = feed ops in
      let batch = Csr.of_digraph (final_digraph ops) in
      Int64.equal (Stream_sketch.fingerprint t) (Csr.fingerprint batch)
      && List.for_all
           (fun cut -> Csr.cut_value batch cut = Csr.cut_value (Stream_sketch.frozen t) cut)
           (cuts_of 101 8))

let qcheck_policy_is_content_invisible =
  QCheck.Test.make ~count:40 ~name:"re-freeze policy never changes content"
    QCheck.(pair spec_gen (int_range 1 16))
    (fun (spec, threshold) ->
      let ops = ops_of_spec spec in
      let a = feed ~refreeze:Stream_sketch.Rebuild ops in
      let b =
        feed
          ~refreeze:(Stream_sketch.Delta_buffer { compact_threshold = threshold })
          ops
      in
      Int64.equal (Stream_sketch.digest a) (Stream_sketch.digest b))

let qcheck_kill_recover =
  QCheck.Test.make ~count:25
    ~name:"kill at any boundary: recovery reproduces the exact state"
    QCheck.(pair spec_gen (int_bound 1000))
    (fun (spec, cut) ->
      let ops = ops_of_spec spec in
      let i = if ops = [] then 0 else cut mod (List.length ops + 1) in
      let prefix = take i ops in
      with_temp_dir (fun dir ->
          let j = journal_with dir prefix in
          let expected = Stream_sketch.digest (Stream_sketch.journal_state j) in
          Stream_sketch.close_journal j;
          let j2, report = ok (Stream_sketch.open_journal ~dir ~n ~seed:42 ()) in
          let got = Stream_sketch.digest (Stream_sketch.journal_state j2) in
          Stream_sketch.close_journal j2;
          report.Wal.applied = i && Int64.equal expected got))

let suite =
  [
    Alcotest.test_case "streamed = batch: graph and cuts" `Quick
      test_streamed_equals_batch_graph;
    Alcotest.test_case "streamed = batch: derived sketches" `Quick
      test_streamed_equals_batch_sketches;
    Alcotest.test_case "imbalances maintained exactly" `Quick
      test_imbalances_maintained;
    Alcotest.test_case "re-freeze policy invariance" `Quick test_policy_invariance;
    Alcotest.test_case "delta overlay bounded by threshold" `Quick
      test_delta_threshold_respected;
    Alcotest.test_case "rejections leave the state untouched" `Quick
      test_rejects_leave_state_untouched;
    Alcotest.test_case "apply reports rejects" `Quick test_apply_reports_rejects;
    Alcotest.test_case "checkpoint restore is byte-identical" `Quick
      test_checkpoint_restore;
    Alcotest.test_case "kill at every record boundary" `Quick
      test_kill_at_every_record_boundary;
    Alcotest.test_case "torn write recovery" `Quick test_torn_write_recovery;
    Alcotest.test_case "periodic checkpoints compact the log" `Quick
      test_periodic_checkpoint_compacts;
    Alcotest.test_case "journal rejects before logging" `Quick
      test_journal_rejects_before_logging;
    Alcotest.test_case "golden ingest pin" `Quick test_golden_ingest;
    QCheck_alcotest.to_alcotest qcheck_streamed_equals_batch;
    QCheck_alcotest.to_alcotest qcheck_policy_is_content_invisible;
    QCheck_alcotest.to_alcotest qcheck_kill_recover;
  ]
