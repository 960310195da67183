(* DAG semantics of Dcs.Sched: values flow along declared edges, the
   report's accounting is exact, cache keys are sensitive to exactly
   (name, code digest, fingerprint, input hashes), and the scheduler is
   deterministic at any domain count — the contracts E23 enforces
   end-to-end, pinned here in isolation. *)

open Dcs

let int_codec : int Sched.codec = Sched.marshal_codec ()

let with_tmp_dir f =
  let dir = Filename.temp_file "dcs_sched_test" "" in
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

(* a = 7; b = a + 1; c = a * 2; d = b + c. *)
let diamond dag =
  let a = Sched.stage dag ~name:"a" ~codec:int_codec ~deps:[] (fun () -> 7) in
  let b =
    Sched.stage dag ~name:"b" ~codec:int_codec ~deps:[ Sched.dep a ]
      (fun () -> Sched.value dag a + 1)
  in
  let c =
    Sched.stage dag ~name:"c" ~codec:int_codec ~deps:[ Sched.dep a ]
      (fun () -> Sched.value dag a * 2)
  in
  let d =
    Sched.stage dag ~name:"d" ~codec:int_codec
      ~deps:[ Sched.dep b; Sched.dep c ]
      (fun () -> Sched.value dag b + Sched.value dag c)
  in
  (a, b, c, d)

let test_diamond () =
  let dag = Sched.create () in
  let a, b, c, d = diamond dag in
  let rep = Sched.run dag in
  Alcotest.(check int) "a" 7 (Sched.value dag a);
  Alcotest.(check int) "b" 8 (Sched.value dag b);
  Alcotest.(check int) "c" 14 (Sched.value dag c);
  Alcotest.(check int) "d" 22 (Sched.value dag d);
  Alcotest.(check int) "stages" 4 rep.Sched.stages;
  Alcotest.(check int) "levels" 3 rep.Sched.levels;
  Alcotest.(check int) "offered" 4 rep.Sched.offered;
  Alcotest.(check int) "ran" 4 rep.Sched.ran;
  Alcotest.(check int) "hits" 0 rep.Sched.hits;
  List.iter
    (fun n -> Alcotest.(check bool) "cold: not from cache" false (Sched.from_cache dag n))
    [ a; b; c; d ]

let test_warm_all_hits () =
  let store = Sched.Store.create () in
  let cold = Sched.create ~store () in
  ignore (diamond cold);
  ignore (Sched.run cold);
  let warm = Sched.create ~store () in
  let _, _, _, d = diamond warm in
  let rep = Sched.run warm in
  Alcotest.(check int) "warm ran" 0 rep.Sched.ran;
  Alcotest.(check int) "warm hits" 4 rep.Sched.hits;
  Alcotest.(check int) "warm d" 22 (Sched.value warm d);
  Alcotest.(check bool) "warm d from cache" true (Sched.from_cache warm d)

let test_fingerprint_invalidates () =
  let store = Sched.Store.create () in
  let mk fp out =
    let dag = Sched.create ~store () in
    let n =
      Sched.stage dag ~name:"seeded" ~fingerprint:fp ~codec:int_codec ~deps:[]
        (fun () -> out)
    in
    (dag, n, Sched.run dag)
  in
  let _, _, r1 = mk 1L 10 in
  Alcotest.(check int) "cold runs" 1 r1.Sched.ran;
  let dag2, n2, r2 = mk 2L 20 in
  Alcotest.(check int) "new fingerprint recomputes" 1 r2.Sched.ran;
  Alcotest.(check int) "new value" 20 (Sched.value dag2 n2);
  let dag3, n3, r3 = mk 1L 999 in
  (* Same identity as the first run: the (stale) thunk is never called. *)
  Alcotest.(check int) "old fingerprint hits" 1 r3.Sched.hits;
  Alcotest.(check int) "cached value wins" 10 (Sched.value dag3 n3)

let test_input_hash_invalidates () =
  (* The sink's own identity never changes; only its input artifact does —
     a changed dependency must cascade into a sink recompute. *)
  let store = Sched.Store.create () in
  let mk fp src_out =
    let dag = Sched.create ~store () in
    let src =
      Sched.stage dag ~name:"src" ~fingerprint:fp ~codec:int_codec ~deps:[]
        (fun () -> src_out)
    in
    let sink =
      Sched.stage dag ~name:"sink" ~codec:int_codec ~deps:[ Sched.dep src ]
        (fun () -> 100 + Sched.value dag src)
    in
    let rep = Sched.run dag in
    (Sched.value dag sink, rep)
  in
  let v1, r1 = mk 1L 1 in
  Alcotest.(check int) "cold sink" 101 v1;
  Alcotest.(check int) "cold ran" 2 r1.Sched.ran;
  let v2, r2 = mk 2L 2 in
  Alcotest.(check int) "sink recomputed off new input" 102 v2;
  Alcotest.(check int) "both recomputed" 2 r2.Sched.ran;
  let v3, r3 = mk 1L 1 in
  Alcotest.(check int) "original chain all-hit" 101 v3;
  Alcotest.(check int) "no recompute" 0 r3.Sched.ran

let test_duplicate_stage_rejected () =
  let dag = Sched.create () in
  ignore (Sched.stage dag ~name:"dup" ~codec:int_codec ~deps:[] (fun () -> 1));
  (match
     Sched.stage dag ~name:"dup" ~codec:int_codec ~deps:[] (fun () -> 2)
   with
  | _ -> Alcotest.fail "duplicate (name, fingerprint) must raise"
  | exception Invalid_argument _ -> ());
  (* A different fingerprint under the same name is a distinct stage. *)
  ignore
    (Sched.stage dag ~name:"dup" ~fingerprint:2L ~codec:int_codec ~deps:[]
       (fun () -> 3))

let test_run_once () =
  let dag = Sched.create () in
  ignore (diamond dag);
  ignore (Sched.run dag);
  (match Sched.run dag with
  | _ -> Alcotest.fail "second run must raise"
  | exception Invalid_argument _ -> ());
  match Sched.stage dag ~name:"late" ~codec:int_codec ~deps:[] (fun () -> 0) with
  | _ -> Alcotest.fail "stage after run must raise"
  | exception Invalid_argument _ -> ()

let test_value_before_run_fails () =
  let dag = Sched.create () in
  let a, _, _, _ = diamond dag in
  match Sched.value dag a with
  | _ -> Alcotest.fail "value before run must fail"
  | exception Failure _ -> ()

(* A wider fan-out whose artifacts are PRNG-derived: the scheduler must
   produce the same artifact bytes at any domain count. *)
let fan_dag dag =
  let srcs =
    List.init 9 (fun i ->
        let name = Printf.sprintf "src%d" i in
        Sched.stage dag ~name ~codec:int_codec ~deps:[]
          (fun () ->
            let rng = Prng.create (0x7ab + i) in
            Int64.to_int (Int64.logand (Prng.bits64 rng) 0xffffL)))
  in
  Sched.stage dag ~name:"sum"
    ~codec:(Sched.marshal_codec ())
    ~deps:(List.map Sched.dep srcs)
    (fun () -> List.map (fun s -> Sched.value dag s) srcs)

let test_domain_determinism () =
  let run domains =
    let dag = Sched.create () in
    let sum = fan_dag dag in
    let rep = Sched.run ~domains dag in
    Alcotest.(check int) "all ran" 10 rep.Sched.ran;
    (Sched.artifact_bytes dag sum, Sched.value dag sum)
  in
  let b1, v1 = run 1 in
  List.iter
    (fun d ->
      let b, v = run d in
      Alcotest.(check string)
        (Printf.sprintf "artifact bytes identical at %d domains" d)
        b1 b;
      Alcotest.(check (list int))
        (Printf.sprintf "values identical at %d domains" d)
        v1 v)
    [ 2; 4 ]

let test_serial_mode () =
  let dag = Sched.create () in
  let p =
    Sched.stage dag ~name:"pooled" ~codec:int_codec ~deps:[] (fun () -> 5)
  in
  let s =
    Sched.stage dag ~name:"serial" ~mode:Sched.Serial ~codec:int_codec
      ~deps:[ Sched.dep p ]
      (fun () -> Sched.value dag p * 3)
  in
  let rep = Sched.run ~domains:4 dag in
  Alcotest.(check int) "serial ran" 1 rep.Sched.serial_ran;
  Alcotest.(check int) "pooled ran" 1 rep.Sched.pooled_ran;
  Alcotest.(check int) "value" 15 (Sched.value dag s)

(* A stage is a pure function of its cache key's inputs, so a restart
   could only repeat its crash: a raising pooled stage runs once, its
   level's other stages still run, and then its exception surfaces as
   [Pool.Task_failed]. *)
let test_raising_stage_runs_once () =
  List.iter
    (fun domains ->
      let dag = Sched.create () in
      let runs = Array.init 3 (fun _ -> Atomic.make 0) in
      let stage i name f =
        ignore
          (Sched.stage dag ~name ~codec:int_codec ~deps:[] (fun () ->
               Atomic.incr runs.(i);
               f ()))
      in
      stage 0 "boom" (fun () -> failwith "boom");
      stage 1 "left" (fun () -> 1);
      stage 2 "right" (fun () -> 2);
      let tag = Printf.sprintf "domains=%d" domains in
      (match Sched.run ~domains dag with
       | _ -> Alcotest.failf "%s: a raising stage must fail the run" tag
       | exception Pool.Task_failed { index; exn = Failure msg; _ } ->
           Alcotest.(check (pair int string)) (tag ^ ": failure") (0, "boom")
             (index, msg));
      Alcotest.(check (array int)) (tag ^ ": each stage ran once") [| 1; 1; 1 |]
        (Array.map Atomic.get runs))
    [ 1; 2 ]

let test_lru_eviction_recomputes () =
  (* A 1-byte memory tier with no disk: every artifact overflows it, so
     only the most recently touched entry survives and a warm DAG can hit
     at most once — the rest are honest misses that recompute. *)
  let store = Sched.Store.create ~mem_capacity_bytes:1 () in
  let ev = Obs.Metrics.counter "sched.store_evictions" in
  let before = Obs.Metrics.counter_value ev in
  let two_stages dag =
    let x = Sched.stage dag ~name:"x" ~codec:int_codec ~deps:[] (fun () -> 1) in
    let y = Sched.stage dag ~name:"y" ~codec:int_codec ~deps:[] (fun () -> 2) in
    (x, y)
  in
  let cold = Sched.create ~store () in
  ignore (two_stages cold);
  ignore (Sched.run cold);
  Alcotest.(check bool) "evictions happened" true
    (Obs.Metrics.counter_value ev > before);
  Alcotest.(check int) "one resident entry" 1 (Sched.Store.entries store);
  let warm = Sched.create ~store () in
  let x, y = two_stages warm in
  let rep = Sched.run warm in
  Alcotest.(check int) "at most one hit" 1 rep.Sched.hits;
  Alcotest.(check int) "the rest recomputed" 1 rep.Sched.ran;
  Alcotest.(check int) "x" 1 (Sched.value warm x);
  Alcotest.(check int) "y" 2 (Sched.value warm y)

let test_disk_write_through () =
  with_tmp_dir (fun dir ->
      let chain dag =
        let a = Sched.stage dag ~name:"a" ~codec:int_codec ~deps:[] (fun () -> 3) in
        let b =
          Sched.stage dag ~name:"b" ~codec:int_codec ~deps:[ Sched.dep a ]
            (fun () -> Sched.value dag a + 10)
        in
        (a, b)
      in
      let cold_store = Sched.Store.create ~dir () in
      let cold = Sched.create ~store:cold_store () in
      let a, b = chain cold in
      ignore (Sched.run cold);
      let arts =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f -> Filename.check_suffix f ".art")
      in
      Alcotest.(check int) "two spilled artifacts" 2 (List.length arts);
      let artifact node =
        Sched.Store.artifact_path cold_store (Sched.key_of cold node)
      in
      let art_a = artifact a and art_b = artifact b in
      (* A fresh store over the same directory: a cold process image must
         rehydrate everything from disk without running a single stage. *)
      let dh = Obs.Metrics.counter "sched.store_disk_hits" in
      let before = Obs.Metrics.counter_value dh in
      let warm = Sched.create ~store:(Sched.Store.create ~dir ()) () in
      let _, b = chain warm in
      let rep = Sched.run warm in
      Alcotest.(check int) "no stage ran" 0 rep.Sched.ran;
      Alcotest.(check int) "all hits" 2 rep.Sched.hits;
      Alcotest.(check int) "both came from disk" 2
        (Obs.Metrics.counter_value dh - before);
      Alcotest.(check int) "value survives the round trip" 13
        (Sched.value warm b);
      (* A partially populated directory: a kill between the stages leaves
         b's artifact missing, a lost file can take a's. A fresh store
         runs exactly the missing stage and serves the other from disk
         (each run's write-through restores the file it recomputed). *)
      List.iter
        (fun (missing, path) ->
          Sys.remove path;
          let dag = Sched.create ~store:(Sched.Store.create ~dir ()) () in
          let _, b = chain dag in
          let rep = Sched.run dag in
          Alcotest.(check int) (missing ^ " missing: it alone ran") 1
            rep.Sched.ran;
          Alcotest.(check int) (missing ^ " missing: the other hit") 1
            rep.Sched.hits;
          Alcotest.(check int) (missing ^ " missing: value") 13
            (Sched.value dag b))
        [ ("b", art_b); ("a", art_a) ])

let suite =
  [
    Alcotest.test_case "diamond: values, levels, accounting" `Quick test_diamond;
    Alcotest.test_case "warm rerun is all cache hits" `Quick test_warm_all_hits;
    Alcotest.test_case "fingerprint change invalidates" `Quick
      test_fingerprint_invalidates;
    Alcotest.test_case "changed input hash cascades" `Quick
      test_input_hash_invalidates;
    Alcotest.test_case "duplicate stage identity rejected" `Quick
      test_duplicate_stage_rejected;
    Alcotest.test_case "DAG runs exactly once" `Quick test_run_once;
    Alcotest.test_case "value before run fails" `Quick test_value_before_run_fails;
    Alcotest.test_case "artifacts identical at 1/2/4 domains" `Quick
      test_domain_determinism;
    Alcotest.test_case "serial stages run in the scheduling domain" `Quick
      test_serial_mode;
    Alcotest.test_case "a raising pooled stage runs once" `Quick
      test_raising_stage_runs_once;
    Alcotest.test_case "LRU eviction forces honest recompute" `Quick
      test_lru_eviction_recomputes;
    Alcotest.test_case "disk write-through rehydrates a fresh store" `Quick
      test_disk_write_through;
  ]
