(* Stress battery for the pool: [run_batched] must reuse one arena per
   domain and report the lowest failing index after running every other
   task, [run_supervised] must produce byte-identical outputs, reports and
   Obs counter increments at every domain count under seed-driven crash
   and hang injection, and the per-task PRNG stream assignment is pinned
   with golden fingerprints so a scheduler change can never silently remap
   task randomness. *)

open Dcs
module M = Obs.Metrics

let domain_counts = [ 1; 2; 4 ]

let counter_deltas names f =
  let counters = List.map M.counter names in
  let before = List.map M.counter_value counters in
  let r = f () in
  (r, List.map2 (fun c b -> M.counter_value c - b) counters before)

(* --- run_batched --- *)

let test_run_batched_edge_sizes () =
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "n=0 domains=%d" d)
        [||]
        (Pool.run_batched ~domains:d ~arena:(fun () -> ()) ~n:0 (fun () i -> i));
      Alcotest.(check (array int))
        (Printf.sprintf "n=1 domains=%d" d)
        [| 0 |]
        (Pool.run_batched ~domains:d ~arena:(fun () -> ()) ~n:1 (fun () i -> i)))
    domain_counts

let test_run_batched_arena_per_domain () =
  (* With domains=1 a single arena serves every task; the arena is genuinely
     reused (the counter inside it survives across tasks). *)
  let out =
    Pool.run_batched ~domains:1
      ~arena:(fun () -> ref 0)
      ~n:10
      (fun a _ ->
        incr a;
        !a)
  in
  Alcotest.(check (array int)) "one arena, reused" (Array.init 10 (fun i -> i + 1)) out

let test_run_batched_failure_lowest_index () =
  List.iter
    (fun d ->
      let ran = Array.make 12 false in
      (try
         ignore
           (Pool.run_batched ~domains:d ~arena:(fun () -> ()) ~n:12
              (fun () i ->
                ran.(i) <- true;
                if i = 5 || i = 9 then failwith "boom";
                i))
       with
      | Pool.Task_failed { index; _ } ->
          Alcotest.(check int) (Printf.sprintf "lowest index, domains=%d" d) 5 index);
      Alcotest.(check bool)
        (Printf.sprintf "all tasks still ran, domains=%d" d)
        true
        (Array.for_all (fun x -> x) ran))
    domain_counts

(* --- supervised runs across domain counts, with fault injection --- *)

(* Deterministic crash/hang injection in the E17 style: decisions come
   from a Fault injector on the attempt stream, so attempt 0 of a doomed
   task fails and the retry (a different stream) almost surely passes —
   and the whole schedule is a pure function of (seed, index, attempt),
   identical at every domain count. *)
let faulty_task ~drop ~timeout ctx =
  let inj = Fault.create (Fault.policy ~drop ~timeout ()) ctx.Pool.attempt_rng in
  if Fault.drops_message inj then failwith "injected crash";
  if Fault.times_out inj then
    raise (Pool.Cancelled { index = ctx.Pool.index; attempt = ctx.Pool.attempt });
  Prng.bits64 ctx.Pool.rng

let strip_backtraces (r : Pool.report) =
  {
    r with
    Pool.failures =
      List.map (fun f -> { f with Pool.backtrace = "" }) r.Pool.failures;
  }

let supervised_counters =
  [
    "pool.supervised_tasks";
    "pool.supervised_rounds";
    "pool.crashes";
    "pool.hangs";
    "pool.restarts";
    "pool.poisoned";
  ]

(* A run either completes or deterministically poisons a task (5 doomed
   attempts in a row); both outcomes must be byte-identical at every
   domain count, so capture rather than propagate. *)
let capture f =
  match f () with
  | vals, rep -> Ok (vals, strip_backtraces rep)
  | exception Pool.Poisoned { index; attempts; last } ->
      Error (index, attempts, { last with Pool.backtrace = "" })

let prop_supervised_domain_invariant =
  QCheck.Test.make
    ~name:"run_supervised: crash/hang injection identical across domains"
    ~count:12
    QCheck.(int_bound 100000)
    (fun seed ->
      let n = 1 + Prng.int (Prng.create seed) 40 in
      let drop = 0.2 and timeout = 0.1 in
      let run d =
        counter_deltas supervised_counters (fun () ->
            capture (fun () ->
                Pool.run_supervised ~domains:d ~restart_budget:4
                  ~rng:(Prng.create (seed + 7))
                  ~n
                  (faulty_task ~drop ~timeout)))
      in
      let reference = run 1 in
      List.for_all (fun d -> run d = reference) domain_counts)

(* --- golden PRNG stream assignment --- *)

(* The contract the whole determinism story hangs on: task [i] of a
   supervised run draws from split (split rng i) 0 at every domain count.
   Pinned as literal
   fingerprints (seed 424242) so a Prng or scheduler change that remaps
   streams fails loudly, not statistically. *)
let golden_seed = 424242

let golden_task_fingerprints =
  [|
    4022009148950501940L;
    -9208893063261210934L;
    -3628241341576673609L;
    -948643652448662171L;
    7421033266413380588L;
    -3139248666169537219L;
    8830448652253338010L;
    -8262500261759339232L;
  |]

let test_golden_stream_assignment () =
  let n = Array.length golden_task_fingerprints in
  (* the spec, computed directly *)
  let direct =
    let master = Prng.create golden_seed in
    Array.init n (fun i -> Prng.fingerprint (Prng.split (Prng.split master i) 0))
  in
  Alcotest.(check (array int64)) "spec = golden" golden_task_fingerprints direct;
  List.iter
    (fun d ->
      let supervised, _ =
        Pool.run_supervised ~domains:d ~rng:(Prng.create golden_seed) ~n
          (fun ctx -> Prng.fingerprint ctx.Pool.rng)
      in
      Alcotest.(check (array int64))
        (Printf.sprintf "domains=%d supervised ctx.rng" d)
        golden_task_fingerprints supervised)
    domain_counts

let test_golden_streams_run_batched () =
  (* run_batched leaves splitting to the caller (as every solver does:
     split master t); the schedule must not perturb it. *)
  let n = 16 in
  let master = Prng.create golden_seed in
  let expect = Array.init n (fun i -> Prng.fingerprint (Prng.split master i)) in
  List.iter
    (fun d ->
      let got =
        Pool.run_batched ~domains:d ~arena:(fun () -> ()) ~n
          (fun () i -> Prng.fingerprint (Prng.split master i))
      in
      Alcotest.(check (array int64))
        (Printf.sprintf "domains=%d" d)
        expect got)
    domain_counts

let suite =
  [
    Alcotest.test_case "run_batched: edge sizes" `Quick test_run_batched_edge_sizes;
    Alcotest.test_case "run_batched: arena reuse" `Quick
      test_run_batched_arena_per_domain;
    Alcotest.test_case "run_batched: lowest-index failure" `Quick
      test_run_batched_failure_lowest_index;
    Alcotest.test_case "golden stream assignment" `Quick
      test_golden_stream_assignment;
    Alcotest.test_case "golden streams: run_batched" `Quick
      test_golden_streams_run_batched;
  ]

let supervised_suite =
  [ QCheck_alcotest.to_alcotest prop_supervised_domain_invariant ]
