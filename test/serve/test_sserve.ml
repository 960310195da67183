(* The serving engine: every admission-control path produces a typed
   response (never a silent drop), degradation honors its advertised eps,
   the breaker trips and recovers with hysteresis, and the whole thing is
   byte-identical across DCS_DOMAINS. *)

open Dcs

let catalog seed ~keys =
  let master = Prng.create seed in
  Array.init keys (fun i ->
      let r = Prng.split master i in
      let g0 = Generators.erdos_renyi_connected r ~n:16 ~p:0.3 in
      Csr.of_ugraph (Generators.random_multigraph_weights r g0 ~max_weight:6))

let graphs = lazy (catalog 501 ~keys:8)

(* A hand-built trace: [specs] is a list of (arrival, key) pairs. *)
let trace ?(deadline = 1_000_000) specs =
  Array.of_list
    (List.mapi
       (fun seq (arrival, key) ->
         {
           Traffic.seq;
           Traffic.arrival;
           Traffic.key;
           Traffic.cut_seed = 7_000 + (13 * seq);
           Traffic.deadline;
         })
       specs)

let exact_value g cut_seed =
  let cut = Cut.random (Prng.create cut_seed) ~n:(Csr.n g) in
  Csr.cut_value g cut

(* Every answered reply must land within its own advertised eps. *)
let check_accuracy gs reqs responses =
  Array.iteri
    (fun i -> function
      | Serve.Answered a ->
          let exact = exact_value gs.(reqs.(i).Traffic.key) reqs.(i).Traffic.cut_seed in
          Alcotest.(check bool)
            (Printf.sprintf "seq %d within eps %.2f" i a.Serve.eps)
            true
            (Float.abs (a.Serve.value -. exact) <= (a.Serve.eps *. exact) +. 1e-9)
      | Serve.Rejected _ -> ())
    responses

let check_accounting responses (s : Serve.stats) =
  let answered = ref 0 and shed = ref 0 and late = ref 0 in
  Array.iter
    (function
      | Serve.Answered _ -> incr answered
      | Serve.Rejected (Serve.Overloaded _) -> incr shed
      | Serve.Rejected (Serve.Deadline_exceeded _) -> incr late)
    responses;
  Alcotest.(check int) "answered responses = stats" s.Serve.answered !answered;
  Alcotest.(check int) "shed responses = stats" s.Serve.shed !shed;
  Alcotest.(check int) "late responses = stats" s.Serve.deadline_rejections !late;
  Alcotest.(check int) "offered fully accounted" s.Serve.offered
    (!answered + !shed + !late);
  Alcotest.(check int) "shed decomposition" s.Serve.shed
    (s.Serve.queue_full + s.Serve.rate_limited + s.Serve.wire_rejections)

(* Each registry counter beside the stats field that tallies it. *)
let registry_tallies (s : Serve.stats) =
  Serve.
    [ ("serve.offered", s.offered); ("serve.answered", s.answered);
      ("serve.answered_degraded", s.degraded_answers); ("serve.shed", s.shed);
      ("serve.queue_full", s.queue_full); ("serve.rate_limited", s.rate_limited);
      ("serve.wire_rejections", s.wire_rejections);
      ("serve.deadline_exceeded", s.deadline_rejections);
      ("serve.cache_hits", s.cache_hits); ("serve.cache_misses", s.cache_misses);
      ("serve.cache_evictions", s.cache_evictions);
      ("serve.cache_invalidations", s.cache_invalidations);
      ("serve.oracle_retries", s.oracle_retries);
      ("serve.oracle_exhausted", s.oracle_exhausted);
      ("serve.backoff_ticks", s.backoff_ticks);
      ("serve.breaker_trips", s.breaker_trips);
      ("serve.breaker_recoveries", s.breaker_recoveries);
      ("serve.batches", s.batches) ]

let registry_counter snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Counter_v v) -> v
  | _ -> Alcotest.failf "%s is not a registered counter" name

(* Each tally of [s] equals how far its registry counter moved since
   [before], a registry snapshot taken before the server ran. *)
let check_registry before (s : Serve.stats) =
  let after = Obs.Metrics.snapshot () in
  List.iter
    (fun (name, tally) ->
      Alcotest.(check int) (name ^ " = registry delta") tally
        (registry_counter after name - registry_counter before name))
    (registry_tallies s)

(* Serve [reqs] on a fresh server over the shared catalog, then check the
   accounting and the registry. *)
let serve_checked ?domains cfg ~seed reqs =
  let srv =
    Serve.create ?domains cfg ~graphs:(Lazy.force graphs) ~rng:(Prng.create seed)
  in
  let before = Obs.Metrics.snapshot () in
  let responses = Serve.run srv reqs in
  let s = Serve.stats srv in
  check_accounting responses s;
  check_registry before s;
  (responses, s)

(* --- calm path --- *)

let test_calm_all_answered () =
  let gs = Lazy.force graphs in
  let reqs = trace (List.init 64 (fun i -> (i * 20, i mod 4))) in
  let responses, s = serve_checked Serve.default_config ~seed:1 reqs in
  Alcotest.(check int) "one response per request" 64 (Array.length responses);
  Alcotest.(check int) "all answered" 64 s.Serve.answered;
  Alcotest.(check int) "nothing degraded" 0 s.Serve.degraded_answers;
  Array.iter
    (function
      | Serve.Answered a ->
          Alcotest.(check bool) "full-fidelity eps" true
            (a.Serve.eps = Serve.default_config.Serve.eps_full);
          Alcotest.(check bool) "not flagged degraded" false a.Serve.degraded;
          Alcotest.(check bool) "positive latency" true (a.Serve.latency > 0)
      | Serve.Rejected _ -> Alcotest.fail "calm trace rejected a request")
    responses;
  check_accuracy gs reqs responses;
  (* 4 distinct keys, capacity 16: first touch per key misses, rest hit. *)
  Alcotest.(check int) "one miss per key" 4 s.Serve.cache_misses;
  Alcotest.(check int) "the rest hit" 60 s.Serve.cache_hits;
  Alcotest.(check int) "no evictions" 0 s.Serve.cache_evictions

let test_cache_thrash_evicts () =
  (* Round-robin over 8 keys with room for 2: every lookup misses. *)
  let reqs = trace (List.init 64 (fun i -> (i * 20, i mod 8))) in
  let cfg = { Serve.default_config with Serve.cache_capacity = 2 } in
  let _, s = serve_checked cfg ~seed:2 reqs in
  Alcotest.(check int) "every lookup misses" 64 s.Serve.cache_misses;
  Alcotest.(check bool) "evictions happened" true (s.Serve.cache_evictions > 0);
  Alcotest.(check int) "lookups = computed requests" s.Serve.answered
    (s.Serve.cache_hits + s.Serve.cache_misses)

let test_update_graph_invalidates () =
  let gs = Array.copy (Lazy.force graphs) in
  let srv = Serve.create Serve.default_config ~graphs:gs ~rng:(Prng.create 11) in
  (* Warm the cache on key 0. *)
  let reqs1 = trace (List.init 8 (fun i -> (i * 50, 0))) in
  let responses1 = Serve.run srv reqs1 in
  let s1 = Serve.stats srv in
  Alcotest.(check int) "warm: one miss" 1 s1.Serve.cache_misses;
  Alcotest.(check int) "nothing invalidated yet" 0 s1.Serve.cache_invalidations;
  (* Mutate key 0 through the streaming layer: rebuild it as an edge
     stream, ingest a new arc, and swap the re-frozen view into the live
     catalog. *)
  let t = Stream_sketch.create ~n:(Csr.n gs.(0)) ~seed:7 () in
  Digraph.iter_edges (Csr.to_digraph gs.(0)) (fun u v w ->
      Stream_sketch.insert t ~u ~v ~w);
  Stream_sketch.insert t ~u:0 ~v:1 ~w:5.0;
  Serve.update_graph srv ~key:0 (Stream_sketch.frozen t);
  gs.(0) <- Stream_sketch.frozen t;
  let s2 = Serve.stats srv in
  Alcotest.(check int) "stale sketch invalidated" 1 s2.Serve.cache_invalidations;
  (* The next run re-misses once (the stale entry is gone) and serves the
     NEW content — accuracy is checked against the updated graph. *)
  let base = s2.Serve.clock + 1 in
  let reqs2 = trace (List.init 8 (fun i -> (base + (i * 50), 0))) in
  let responses = Serve.run srv reqs2 in
  let s3 = Serve.stats srv in
  Alcotest.(check int) "one fresh miss after invalidation" 2 s3.Serve.cache_misses;
  check_accuracy gs reqs2 responses;
  check_accounting (Array.append responses1 responses) s3;
  (* Re-installing identical content is invisible: the fingerprint is
     unchanged, so the warm cache entry survives. *)
  Serve.update_graph srv ~key:0 gs.(0);
  Alcotest.(check int) "no-op update does not invalidate" 1
    (Serve.stats srv).Serve.cache_invalidations;
  Alcotest.(check bool) "key outside the catalog rejected" true
    (try
       Serve.update_graph srv ~key:99 gs.(0);
       false
     with Invalid_argument _ -> true)

(* --- admission control --- *)

let overflow_cfg =
  {
    Serve.default_config with
    Serve.queue_depth = 4;
    Serve.batch = 4;
    Serve.bucket_capacity = 64;
    Serve.rate_num = 1;
    Serve.rate_den = 1;
  }

let queue_full_seqs responses =
  let shed = ref [] in
  Array.iteri
    (fun i -> function
      | Serve.Rejected (Serve.Overloaded Serve.Queue_full) -> shed := i :: !shed
      | _ -> ())
    responses;
  List.rev !shed

let test_shed_newest_exact () =
  (* 16 simultaneous arrivals into a depth-4 queue: seqs 0-3 are admitted,
     every later arrival is the newest and is shed. *)
  let reqs = trace (List.init 16 (fun i -> (0, i mod 4))) in
  let responses, s = serve_checked overflow_cfg ~seed:3 reqs in
  Alcotest.(check (list int)) "arrivals 4..15 shed"
    (List.init 12 (fun i -> i + 4))
    (queue_full_seqs responses);
  Alcotest.(check int) "the four oldest answered" 4 s.Serve.answered

let test_shed_oldest_exact () =
  (* Same offered load, opposite policy: each arrival displaces the head,
     so the last 4 arrivals survive and seqs 0-11 are shed. *)
  let reqs = trace (List.init 16 (fun i -> (0, i mod 4))) in
  let cfg = { overflow_cfg with Serve.shed_policy = Serve.Reject_oldest } in
  let responses, s = serve_checked cfg ~seed:3 reqs in
  Alcotest.(check (list int)) "arrivals 0..11 shed"
    (List.init 12 Fun.id)
    (queue_full_seqs responses);
  Alcotest.(check int) "the four newest answered" 4 s.Serve.answered;
  Alcotest.(check int) "queue peak = depth" 4 s.Serve.queue_peak

let test_rate_limiting () =
  (* One-token bucket refilling a token per 1000 ticks: of ten arrivals in
     ten ticks, only the first is admitted. *)
  let reqs = trace (List.init 10 (fun i -> (i, 0))) in
  let cfg =
    {
      Serve.default_config with
      Serve.bucket_capacity = 1;
      Serve.rate_num = 1;
      Serve.rate_den = 1_000;
    }
  in
  let responses, s = serve_checked cfg ~seed:4 reqs in
  Alcotest.(check int) "one admitted" 1 s.Serve.answered;
  Alcotest.(check int) "nine rate-limited" 9 s.Serve.rate_limited;
  Array.iteri
    (fun i -> function
      | Serve.Rejected (Serve.Overloaded Serve.Rate_limited) ->
          Alcotest.(check bool) "only later arrivals limited" true (i > 0)
      | Serve.Answered _ ->
          Alcotest.(check int) "the first arrival got through" 0 i
      | Serve.Rejected _ -> Alcotest.failf "unexpected rejection at seq %d" i)
    responses

let test_deadline_exceeded_typed () =
  (* Service costs 6 + 2 overhead ticks against a 1-tick budget: every
     request completes, late, and says by how much. *)
  let reqs = trace ~deadline:1 (List.init 8 (fun i -> (i * 500, i mod 4))) in
  let responses, s = serve_checked Serve.default_config ~seed:5 reqs in
  Alcotest.(check int) "all late" 8 s.Serve.deadline_rejections;
  Array.iter
    (function
      | Serve.Rejected (Serve.Deadline_exceeded { lateness }) ->
          Alcotest.(check bool) "positive lateness" true (lateness > 0)
      | _ -> Alcotest.fail "expected Deadline_exceeded")
    responses

let test_wire_give_up_rejects_frame () =
  (* A dead wire: every frame exhausts its retransmissions and its whole
     group is rejected with the give-up accounting attached. *)
  let reqs = trace (List.init 12 (fun i -> (i * 100, i mod 4))) in
  let cfg =
    {
      Serve.default_config with
      Serve.wire = Fault.policy ~drop:1.0 ();
      Serve.max_retransmissions = 2;
    }
  in
  let responses, s = serve_checked cfg ~seed:6 reqs in
  Alcotest.(check int) "everything rejected on the wire" 12
    s.Serve.wire_rejections;
  Array.iter
    (function
      | Serve.Rejected (Serve.Overloaded (Serve.Wire_give_up gu)) ->
          Alcotest.(check int) "bounded transmissions" 3 gu.Channel.transmissions
      | _ -> Alcotest.fail "expected Wire_give_up")
    responses

(* --- degradation --- *)

let test_breaker_trips_and_recovers () =
  let gs = Lazy.force graphs in
  (* An always-timing-out oracle: full-fidelity requests exhaust their
     retries, the breaker trips, degraded mode (no oracle) produces healthy
     windows, the breaker recovers after the hysteresis streak — and the
     cycle repeats. *)
  let reqs = trace (List.init 400 (fun i -> (i * 50, i mod 4))) in
  let cfg =
    {
      Serve.default_config with
      Serve.oracle = Fault.policy ~timeout:1.0 ();
      Serve.retry_budget = 2;
      Serve.breaker =
        {
          Serve.window = 8;
          Serve.trip_fault_rate = 0.5;
          Serve.trip_queue = 512;
          Serve.recovery_windows = 2;
        };
    }
  in
  let responses, s = serve_checked cfg ~seed:7 reqs in
  check_accuracy gs reqs responses;
  Alcotest.(check bool) "breaker tripped more than once" true
    (s.Serve.breaker_trips >= 2);
  Alcotest.(check bool) "and recovered in between" true
    (s.Serve.breaker_recoveries >= 1);
  Alcotest.(check bool) "hysteresis: trips lead recoveries" true
    (s.Serve.breaker_trips >= s.Serve.breaker_recoveries);
  Alcotest.(check bool) "retries were spent" true
    (s.Serve.oracle_retries > 0 && s.Serve.oracle_exhausted > 0);
  Alcotest.(check bool) "backoff was charged" true (s.Serve.backoff_ticks > 0);
  Alcotest.(check bool) "degraded answers produced" true
    (s.Serve.degraded_answers > 0);
  (* Every degraded answer advertises the wide eps; with a dead oracle
     every answer is degraded one way (breaker) or the other (exhausted). *)
  Array.iter
    (function
      | Serve.Answered a ->
          Alcotest.(check bool) "flagged degraded" true a.Serve.degraded;
          Alcotest.(check (float 1e-12)) "advertises eps_degraded"
            cfg.Serve.eps_degraded a.Serve.eps
      | Serve.Rejected _ -> Alcotest.fail "no rejections expected here")
    responses

(* --- long-lived server --- *)

let test_clock_persists_across_runs () =
  let gs = Lazy.force graphs in
  let srv = Serve.create Serve.default_config ~graphs:gs ~rng:(Prng.create 8) in
  let r1 = Serve.run srv (trace (List.init 8 (fun i -> (i * 30, 0)))) in
  let clock1 = (Serve.stats srv).Serve.clock in
  Alcotest.(check bool) "clock advanced" true (clock1 > 0);
  (* A second trace may not start before the persisted clock... *)
  Alcotest.(check bool) "stale arrivals rejected" true
    (try
       ignore (Serve.run srv (trace [ (0, 0) ]));
       false
     with Invalid_argument _ -> true);
  (* ... but one at/after it continues the same accounting. *)
  let r2 = Serve.run srv (trace [ (clock1, 1); (clock1 + 10, 2) ]) in
  let s = Serve.stats srv in
  Alcotest.(check int) "offered accumulates" 10 s.Serve.offered;
  Alcotest.(check int) "answered accumulates" 10 s.Serve.answered;
  Alcotest.(check int) "runs answer independently"
    (Array.length r1 + Array.length r2)
    10

let test_run_validates_trace () =
  let gs = Lazy.force graphs in
  let srv = Serve.create Serve.default_config ~graphs:gs ~rng:(Prng.create 9) in
  Alcotest.(check bool) "key outside catalog" true
    (try
       ignore (Serve.run srv (trace [ (0, 99) ]));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "decreasing arrivals" true
    (try
       ignore (Serve.run srv (trace [ (10, 0); (5, 0) ]));
       false
     with Invalid_argument _ -> true)

(* --- config validation --- *)

let test_validate_rejects () =
  let bad msg cfg =
    Alcotest.(check bool) msg true
      (try
         Serve.validate cfg;
         false
       with Invalid_argument _ -> true)
  in
  bad "queue_depth" { Serve.default_config with Serve.queue_depth = 0 };
  bad "eps order"
    { Serve.default_config with Serve.eps_full = 0.5; Serve.eps_degraded = 0.1 };
  bad "eps range" { Serve.default_config with Serve.eps_full = 1.5 };
  bad "retry budget" { Serve.default_config with Serve.retry_budget = 0 };
  bad "retransmissions"
    { Serve.default_config with Serve.max_retransmissions = -1 };
  bad "trip rate"
    {
      Serve.default_config with
      Serve.breaker =
        { Serve.default_config.Serve.breaker with Serve.trip_fault_rate = 1.5 };
    };
  Serve.validate Serve.default_config

(* --- the stressed trace: bursty arrivals, faulty oracle, flaky wire,
   small queue; full batches of 8 fan out on the pool --- *)

let stressed_reqs =
  lazy
    (Traffic.generate (Prng.create 44)
       {
         Traffic.keys = 8;
         Traffic.hot_keys = 2;
         Traffic.hot_fraction = 0.8;
         Traffic.mean_gap = 4;
         Traffic.burst_every = 500;
         Traffic.burst_len = 150;
         Traffic.burst_factor = 8;
         Traffic.deadline = 60;
       }
       ~n:3_000)

let stressed_cfg =
  {
    Serve.default_config with
    Serve.queue_depth = 16;
    Serve.batch = 8;
    Serve.oracle = Fault.policy ~timeout:0.3 ();
    Serve.wire = Fault.policy ~drop:0.05 ~corrupt:0.05 ();
  }

(* --- golden pin --- *)

let response_line = function
  | Serve.Answered a ->
      Printf.sprintf "answered %h %h %b %d %b" a.Serve.value a.Serve.eps
        a.Serve.degraded a.Serve.latency a.Serve.cache_hit
  | Serve.Rejected (Serve.Overloaded Serve.Queue_full) -> "queue_full"
  | Serve.Rejected (Serve.Overloaded Serve.Rate_limited) -> "rate_limited"
  | Serve.Rejected (Serve.Overloaded (Serve.Wire_give_up g)) ->
      Printf.sprintf "wire %d %d %d" g.Channel.transmissions g.Channel.gu_drops
        g.Channel.gu_corruptions
  | Serve.Rejected (Serve.Deadline_exceeded { lateness }) ->
      Printf.sprintf "late %d" lateness

(* Golden values for the stressed trace plus one live update: a change to
   the engine's bookkeeping must move no response and no count, and every
   tally must equal the delta of its registry counter. *)
let test_golden_stressed () =
  let gs = Array.copy (Lazy.force graphs) in
  let before = Obs.Metrics.snapshot () in
  let srv = Serve.create stressed_cfg ~graphs:gs ~rng:(Prng.create 45) in
  let responses = Serve.run srv (Lazy.force stressed_reqs) in
  Serve.update_graph srv ~key:0 gs.(1);
  let s = Serve.stats srv in
  let lines =
    Array.to_list (Array.map response_line responses)
    @ List.map
        (fun (k, v) -> Printf.sprintf "%s %d" k v)
        (registry_tallies s
        @ [ ("queue_peak", s.Serve.queue_peak); ("clock", s.Serve.clock) ])
  in
  Alcotest.(check string) "digest of responses and stats"
    "8cec3593d993e81b6fbfb479697e75e4"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)));
  check_registry before s

(* --- determinism across DCS_DOMAINS --- *)

let test_cross_domain_identical () =
  (* The stressed trace must be byte-identical at 1/2/4 domains: responses
     and every counter. *)
  let reqs = Lazy.force stressed_reqs in
  let run domains = serve_checked ~domains stressed_cfg ~seed:45 reqs in
  let r1, s1 = run 1 in
  Alcotest.(check bool)
    (Printf.sprintf "answers exercised (%d)" s1.Serve.answered)
    true (s1.Serve.answered > 0);
  Alcotest.(check bool)
    (Printf.sprintf "shedding exercised (%d)" s1.Serve.shed)
    true (s1.Serve.shed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "deadlines exercised (%d)" s1.Serve.deadline_rejections)
    true
    (s1.Serve.deadline_rejections > 0);
  List.iter
    (fun domains ->
      let rd, sd = run domains in
      Alcotest.(check bool)
        (Printf.sprintf "responses identical at %d domains" domains)
        true (rd = r1);
      Alcotest.(check bool)
        (Printf.sprintf "stats identical at %d domains" domains)
        true (sd = s1))
    [ 2; 4 ]

(* --- qcheck: the cardinal rule under arbitrary load --- *)

let prop_no_silent_drops =
  QCheck.Test.make
    ~name:"serve: answered + shed + late = offered for arbitrary load"
    ~count:40
    QCheck.(
      quad (int_range 0 60) (int_range 1 6) (int_range 1 1_000)
        (int_range 1 10_000))
    (fun (n, queue_depth, deadline, seed) ->
      let traffic =
        {
          Traffic.keys = 8;
          Traffic.hot_keys = 2;
          Traffic.hot_fraction = 0.7;
          Traffic.mean_gap = 3;
          Traffic.burst_every = 0;
          Traffic.burst_len = 0;
          Traffic.burst_factor = 1;
          Traffic.deadline = deadline;
        }
      in
      let reqs = Traffic.generate (Prng.create seed) traffic ~n in
      let cfg =
        {
          Serve.default_config with
          Serve.queue_depth;
          Serve.batch = 4;
          Serve.bucket_capacity = 8;
          Serve.oracle = Fault.policy ~timeout:0.4 ();
          Serve.wire = Fault.policy ~drop:0.1 ();
          Serve.max_retransmissions = 1;
        }
      in
      let responses, s = serve_checked cfg ~seed:(seed + 1) reqs in
      Array.length responses = n && s.Serve.offered = n)

let suite =
  [
    Alcotest.test_case "serve: calm trace all answered" `Quick
      test_calm_all_answered;
    Alcotest.test_case "serve: cache thrash evicts" `Quick
      test_cache_thrash_evicts;
    Alcotest.test_case "serve: live update invalidates the cache" `Quick
      test_update_graph_invalidates;
    Alcotest.test_case "serve: shed newest (exact seqs)" `Quick
      test_shed_newest_exact;
    Alcotest.test_case "serve: shed oldest (exact seqs)" `Quick
      test_shed_oldest_exact;
    Alcotest.test_case "serve: rate limiting" `Quick test_rate_limiting;
    Alcotest.test_case "serve: deadline exceeded typed" `Quick
      test_deadline_exceeded_typed;
    Alcotest.test_case "serve: wire give-up rejects frame" `Quick
      test_wire_give_up_rejects_frame;
    Alcotest.test_case "serve: breaker trips and recovers" `Quick
      test_breaker_trips_and_recovers;
    Alcotest.test_case "serve: clock persists across runs" `Quick
      test_clock_persists_across_runs;
    Alcotest.test_case "serve: run validates trace" `Quick
      test_run_validates_trace;
    Alcotest.test_case "serve: validate rejects" `Quick test_validate_rejects;
    Alcotest.test_case "serve: golden stressed trace" `Quick
      test_golden_stressed;
    Alcotest.test_case "serve: cross-domain identical" `Quick
      test_cross_domain_identical;
    QCheck_alcotest.to_alcotest prop_no_silent_drops;
  ]
