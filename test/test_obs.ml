(* The observability subsystem's contract:

   (a) sharded counters lose no increments under Pool fan-outs, at every
   domain count, including the supervised engine where a crashed-and-
   retried task must count exactly once;
   (b) attempt journals commit on return, discard on exception, and nest;
   (c) histograms bucket exponentially with an exact sum;
   (d) snapshots are sorted, counts-only, and identical across domain
   counts — the property bin/check_determinism.sh diffs end to end.

   Metric names are global to the process, so every test uses its own
   [obs.test.*] names and asserts on deltas, never absolutes. *)

open Dcs
module M = Obs.Metrics

let domain_counts = [ 1; 2; 4 ]

(* --- counters, histograms: single-domain basics --- *)

let test_counter_basics () =
  let c = M.counter "obs.test.basic" in
  let before = M.counter_value c in
  M.inc c;
  M.inc ~by:41 c;
  Alcotest.(check int) "1 + 41" (before + 42) (M.counter_value c);
  Alcotest.(check bool) "get-or-create returns the same metric" true
    (M.counter_value (M.counter "obs.test.basic") = before + 42)

let test_kind_mismatch_raises () =
  ignore (M.counter "obs.test.kinded");
  Alcotest.(check bool) "counter reopened as histogram raises" true
    (try
       ignore (M.histogram "obs.test.kinded");
       false
     with Invalid_argument _ -> true)

let test_histogram_buckets () =
  let h = M.histogram ~buckets:8 "obs.test.hist" in
  List.iter (fun v -> M.observe h v) [ 0; 1; 1; 3; 8; 1000 ];
  let v = M.histogram_value h in
  Alcotest.(check int) "count" 6 v.M.count;
  Alcotest.(check int) "sum" 1013 v.M.sum;
  Alcotest.(check int) "zero bucket" 1 v.M.bucket_counts.(0);
  Alcotest.(check int) "[1,2)" 2 v.M.bucket_counts.(1);
  Alcotest.(check int) "[2,4)" 1 v.M.bucket_counts.(2);
  Alcotest.(check int) "[8,16)" 1 v.M.bucket_counts.(4);
  (* 1000 >= 2^6 overflows into the last bucket of an 8-bucket histogram *)
  Alcotest.(check int) "overflow bucket" 1 v.M.bucket_counts.(7);
  Alcotest.(check string) "label" "4-7" (M.bucket_label ~buckets:8 3);
  Alcotest.(check bool) "buckets < 2 raises" true
    (try
       ignore (M.histogram ~buckets:1 "obs.test.hist-bad");
       false
     with Invalid_argument _ -> true)

(* --- no lost increments under the parallel engine --- *)

let test_no_lost_increments_parallel () =
  let c = M.counter "obs.test.parallel" in
  List.iter
    (fun d ->
      let before = M.counter_value c in
      let n = 211 in
      ignore
        (Pool.parallel_init ~domains:d ~n (fun i ->
             M.inc c;
             M.inc ~by:(i mod 3) c;
             i));
      let expected = ref 0 in
      for i = 0 to n - 1 do
        expected := !expected + 1 + (i mod 3)
      done;
      let expected = !expected in
      Alcotest.(check int)
        (Printf.sprintf "delta at domains=%d" d)
        expected
        (M.counter_value c - before))
    domain_counts

let prop_no_lost_increments =
  QCheck.Test.make ~name:"sharded counter sums all task increments" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 0 150))
    (fun (domains, n) ->
      let c = M.counter "obs.test.qcheck" in
      let before = M.counter_value c in
      ignore (Pool.parallel_init ~domains ~n (fun i -> M.inc ~by:(i + 1) c));
      M.counter_value c - before = n * (n + 1) / 2)

(* --- supervised engine: a crashed-and-retried task counts exactly once --- *)

let test_supervised_exactly_once () =
  let c = M.counter "obs.test.supervised" in
  let h = M.histogram ~buckets:6 "obs.test.supervised-hist" in
  List.iter
    (fun d ->
      let before = M.counter_value c in
      let hist_before = (M.histogram_value h).M.count in
      let n = 23 in
      let _, rep =
        Pool.run_supervised ~domains:d ~rng:(Prng.create 601) ~n (fun ctx ->
            M.inc c;
            M.observe h ctx.Pool.index;
            (* crash after bumping: the bump must not survive the attempt *)
            if ctx.Pool.attempt = 0 && ctx.Pool.index mod 5 = 4 then
              failwith "transient";
            ctx.Pool.index)
      in
      Alcotest.(check bool)
        (Printf.sprintf "crashes occurred at domains=%d" d)
        true (rep.Pool.crashes > 0);
      Alcotest.(check int)
        (Printf.sprintf "each task counted once at domains=%d" d)
        n
        (M.counter_value c - before);
      Alcotest.(check int)
        (Printf.sprintf "histogram observations once at domains=%d" d)
        n
        ((M.histogram_value h).M.count - hist_before))
    domain_counts

(* --- attempt journals --- *)

let test_in_attempt_commit_and_discard () =
  let c = M.counter "obs.test.txn" in
  let before = M.counter_value c in
  let v = M.in_attempt (fun () -> M.inc ~by:5 c; 99) in
  Alcotest.(check int) "value through" 99 v;
  Alcotest.(check int) "committed" (before + 5) (M.counter_value c);
  (try M.in_attempt (fun () -> M.inc ~by:100 c; failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "discarded on exception" (before + 5) (M.counter_value c)

let test_in_attempt_nests () =
  let c = M.counter "obs.test.txn-nest" in
  let before = M.counter_value c in
  (* inner commit folds into the outer journal, outer discard drops both *)
  (try
     M.in_attempt (fun () ->
         M.inc c;
         M.in_attempt (fun () -> M.inc ~by:10 c);
         failwith "outer")
   with Failure _ -> ());
  Alcotest.(check int) "outer discard rolls back inner commit" before
    (M.counter_value c);
  M.in_attempt (fun () ->
      M.inc c;
      M.in_attempt (fun () -> M.inc ~by:10 c));
  Alcotest.(check int) "both commit on clean return" (before + 11)
    (M.counter_value c)

(* --- snapshots --- *)

let test_snapshot_sorted_and_complete () =
  ignore (M.counter "obs.test.snap-b");
  ignore (M.counter "obs.test.snap-a");
  let names = List.map fst (M.snapshot ()) in
  Alcotest.(check bool) "sorted" true (names = List.sort compare names);
  Alcotest.(check bool) "registered metrics present" true
    (List.mem "obs.test.snap-a" names && List.mem "obs.test.snap-b" names)

let test_snapshot_identical_across_domains () =
  (* The same logical work at 1/2/4 domains must yield identical deltas for
     every metric it touches — the in-process version of the byte-diff that
     bin/check_determinism.sh performs on E18's DCS_METRICS JSON. *)
  let c = M.counter "obs.test.xdomains" in
  let h = M.histogram ~buckets:10 "obs.test.xdomains-hist" in
  let work d =
    let before_c = M.counter_value c in
    let before_h = M.histogram_value h in
    ignore
      (Pool.parallel_init ~domains:d ~n:97 (fun i ->
           M.inc ~by:(i land 7) c;
           M.observe h i));
    let after_h = M.histogram_value h in
    ( M.counter_value c - before_c,
      after_h.M.count - before_h.M.count,
      after_h.M.sum - before_h.M.sum,
      Array.init
        (Array.length after_h.M.bucket_counts)
        (fun b -> after_h.M.bucket_counts.(b) - before_h.M.bucket_counts.(b)) )
  in
  let reference = work 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "deltas at domains=%d equal single-domain run" d)
        true
        (work d = reference))
    [ 2; 4 ]

let test_report_json_deterministic () =
  ignore (M.counter "obs.test.json");
  let a = Obs.Report.snapshot_json () in
  let b = Obs.Report.snapshot_json () in
  Alcotest.(check string) "stable between calls" a b;
  Alcotest.(check bool) "mentions the metric" true
    (let sub = "\"obs.test.json\"" in
     let rec find i =
       i + String.length sub <= String.length a
       && (String.sub a i (String.length sub) = sub || find (i + 1))
     in
     find 0)

(* --- tracing --- *)

let test_trace_spans () =
  let was = Obs.Trace.enabled () in
  Obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () -> if not was then Obs.Trace.disable ())
    (fun () ->
      Obs.Trace.reset ();
      Obs.Trace.with_span "obs.test.outer" (fun () ->
          Obs.Trace.with_span "obs.test.inner" (fun () -> Unix.sleepf 0.002));
      let stats = Obs.Trace.stats () in
      let find name = List.find (fun s -> s.Obs.Trace.name = name) stats in
      let outer = find "obs.test.outer" and inner = find "obs.test.inner" in
      Alcotest.(check int) "outer count" 1 outer.Obs.Trace.count;
      Alcotest.(check int) "inner count" 1 inner.Obs.Trace.count;
      Alcotest.(check bool) "inner time charged to inner's self" true
        (inner.Obs.Trace.self_s > 0.0);
      Alcotest.(check bool) "outer self excludes inner" true
        (outer.Obs.Trace.self_s <= outer.Obs.Trace.total_s -. inner.Obs.Trace.total_s +. 1e-9))

let test_trace_exception_safe () =
  let was = Obs.Trace.enabled () in
  Obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () -> if not was then Obs.Trace.disable ())
    (fun () ->
      Obs.Trace.reset ();
      (try Obs.Trace.with_span "obs.test.raises" (fun () -> failwith "boom")
       with Failure _ -> ());
      (* the span closed despite the raise: a sibling span is not nested
         under a dangling parent, and the stats recorded the occurrence *)
      Obs.Trace.with_span "obs.test.sibling" (fun () -> ());
      let stats = Obs.Trace.stats () in
      let count name =
        match List.find_opt (fun s -> s.Obs.Trace.name = name) stats with
        | Some s -> s.Obs.Trace.count
        | None -> 0
      in
      Alcotest.(check int) "raised span recorded" 1 (count "obs.test.raises");
      Alcotest.(check int) "sibling recorded" 1 (count "obs.test.sibling"))

let test_trace_disabled_is_transparent () =
  let was = Obs.Trace.enabled () in
  Obs.Trace.disable ();
  Fun.protect
    ~finally:(fun () -> if was then Obs.Trace.enable ())
    (fun () ->
      Alcotest.(check int) "value passes through" 17
        (Obs.Trace.with_span "obs.test.off" (fun () -> 17)))

let suite =
  [
    Alcotest.test_case "metrics: counter basics" `Quick test_counter_basics;
    Alcotest.test_case "metrics: kind mismatch raises" `Quick test_kind_mismatch_raises;
    Alcotest.test_case "metrics: histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "metrics: no lost increments (parallel)" `Quick
      test_no_lost_increments_parallel;
    QCheck_alcotest.to_alcotest prop_no_lost_increments;
    Alcotest.test_case "metrics: supervised retry counts once" `Quick
      test_supervised_exactly_once;
    Alcotest.test_case "metrics: in_attempt commit/discard" `Quick
      test_in_attempt_commit_and_discard;
    Alcotest.test_case "metrics: in_attempt nests" `Quick test_in_attempt_nests;
    Alcotest.test_case "metrics: snapshot sorted" `Quick
      test_snapshot_sorted_and_complete;
    Alcotest.test_case "metrics: deltas domain-count independent" `Quick
      test_snapshot_identical_across_domains;
    Alcotest.test_case "report: json snapshot deterministic" `Quick
      test_report_json_deterministic;
    Alcotest.test_case "trace: span nesting and self time" `Quick test_trace_spans;
    Alcotest.test_case "trace: exception safe" `Quick test_trace_exception_safe;
    Alcotest.test_case "trace: disabled is transparent" `Quick
      test_trace_disabled_is_transparent;
  ]
