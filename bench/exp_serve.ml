(* E21 — dcutd serving layer: admission control + graceful degradation.

   Drives the [Serve] control plane (Issue 7's tentpole) with the
   deterministic open-loop generator through five ~200k-request scenarios
   — one million queries total — and enforces the serving contract:

   - zero silent drops: every offered request gets exactly one typed
     response, [answered + shed + deadline = offered], cross-checked
     against the serve.* registry counters (E18-style);
   - sketch-cache hit rate >= 90% on the hot-key trace;
   - typed shedding under the burst battery (and none when calm);
   - the circuit breaker trips to degraded mode and recovers (hysteresis)
     under both overload and a faulty oracle;
   - every answer — degraded included — lands within its advertised eps,
     verified on a deterministic subsample against exact re-evaluation;
   - p50/p99 latency and throughput are virtual-tick figures, so the whole
     table is byte-identical across DCS_DOMAINS (the determinism gate runs
     this experiment at 1/2/4). Wall clock goes to stderr only. *)

open Dcs

(* The catalog: 64 modest weighted graphs; requests address them by key
   and the server caches by Csr.fingerprint. *)
let catalog rng =
  let master = Prng.fork rng in
  Array.init 64 (fun i ->
      let r = Prng.split master i in
      let g0 = Generators.erdos_renyi_connected r ~n:48 ~p:0.12 in
      Csr.of_ugraph (Generators.random_multigraph_weights r g0 ~max_weight:8))

let percentile sorted p_hundredths =
  let len = Array.length sorted in
  if len = 0 then 0 else sorted.((len - 1) * p_hundredths / 100)

(* Exact re-evaluation of a request's query, for the eps-conformance
   subsample. *)
let exact_value graphs (r : Traffic.request) =
  let g = graphs.(r.key) in
  Csr.cut_value g (Cut.random (Prng.create r.cut_seed) ~n:(Csr.n g))

type row = {
  name : string;
  stats : Serve.stats;
  p50 : int;
  p99 : int;
  kept : int; (* eps-conformant answers in the subsample *)
  sampled : int;
}

let scenario ~name ~graphs ~rng ~n ~traffic ~cfg =
  let trace_rng = Prng.fork rng in
  let server_rng = Prng.fork rng in
  let reqs = Traffic.generate trace_rng traffic ~n in
  let srv = Serve.create cfg ~graphs ~rng:server_rng in
  let responses = Serve.run srv reqs in
  let stats = Serve.stats srv in
  if Array.length responses <> n then Common.fail "E21 %s: lost responses" name;
  (* Zero silent drops: the typed responses must re-add to the offer. *)
  let ans = ref 0 and shed = ref 0 and dl = ref 0 in
  Array.iter
    (function
      | Serve.Answered _ -> incr ans
      | Serve.Rejected (Serve.Overloaded _) -> incr shed
      | Serve.Rejected (Serve.Deadline_exceeded _) -> incr dl)
    responses;
  if !ans <> stats.Serve.answered || !shed <> stats.Serve.shed
     || !dl <> stats.Serve.deadline_rejections
  then
    Common.fail "E21 %s: response types disagree with server accounting" name;
  if !ans + !shed + !dl <> n then
    Common.fail "E21 %s: silent drop detected" name;
  (* Advertised-accuracy conformance on a deterministic subsample: every
     97th request that was answered, degraded or not. *)
  let kept = ref 0 and sampled = ref 0 in
  Array.iteri
    (fun i resp ->
      if i mod 97 = 0 then
        match resp with
        | Serve.Answered a ->
            incr sampled;
            let exact = exact_value graphs reqs.(i) in
            if Float.abs (a.Serve.value -. exact) <= (a.Serve.eps *. exact) +. 1e-9
            then incr kept
        | Serve.Rejected _ -> ())
    responses;
  if !kept <> !sampled then
    Common.fail "E21 %s: %d/%d sampled answers outside their advertised eps"
      name (!sampled - !kept) !sampled;
  let lats =
    Array.of_list
      (List.filter_map
         (function Serve.Answered a -> Some a.Serve.latency | _ -> None)
         (Array.to_list responses))
  in
  Array.sort compare lats;
  {
    name;
    stats;
    p50 = percentile lats 50;
    p99 = percentile lats 99;
    kept = !kept;
    sampled = !sampled;
  }

let run_scenario ~name ~graphs ~rng ~n ~traffic ~cfg =
  let row, wall =
    Common.time (fun () -> scenario ~name ~graphs ~rng ~n ~traffic ~cfg)
  in
  Printf.eprintf "  [E21 %s: %d reqs in %.2fs wall]\n%!" name n wall;
  row

let pct num den =
  if den = 0 then "-" else Printf.sprintf "%.1f%%" (100. *. float num /. float den)

let run () =
  Common.section "E21 dcutd serving layer: admission control + degradation";
  let rng = Common.rng_for 21 in
  let graphs = catalog rng in
  let p_off = Common.probe "serve.offered" in
  let p_ans = Common.probe "serve.answered" in
  let p_shed = Common.probe "serve.shed" in
  let p_dl = Common.probe "serve.deadline_exceeded" in
  let p_gave_up = Common.probe "channel.gave_up" in
  let base = Serve.default_config in
  let calm_traffic =
    { Traffic.default with Traffic.burst_every = 0; Traffic.burst_len = 0 }
  in
  let scen_master = Prng.fork rng in
  let scen i = Prng.split scen_master i in
  let n = 200_000 in

  (* S1 calm: ample capacity — nothing shed, nothing late, hot cache. *)
  let s1 =
    run_scenario ~name:"calm" ~graphs ~rng:(scen 1) ~n ~traffic:calm_traffic
      ~cfg:base
  in
  Common.enforce "E21" "calm sheds nothing" (s1.stats.Serve.shed = 0);
  Common.enforce "E21" "calm misses no deadline"
    (s1.stats.Serve.deadline_rejections = 0);
  Common.enforce "E21" "calm answers everything" (s1.stats.Serve.answered = n);
  Common.enforce "E21" "hot-key cache hit rate >= 90%"
    (10 * s1.stats.Serve.cache_hits
    >= 9 * (s1.stats.Serve.cache_hits + s1.stats.Serve.cache_misses));
  if s1.p99 > 128 then
    Common.fail "E21: calm p99 %d exceeds the 128-tick floor (p50 %d)" s1.p99
      s1.p50;

  (* S2 cache churn: the cache barely fits the hot set, so the cold tail
     forces evictions — hits stay majority, eviction accounting exact. *)
  let s2 =
    run_scenario ~name:"cache-churn" ~graphs ~rng:(scen 2) ~n
      ~traffic:{ calm_traffic with Traffic.hot_fraction = 0.9 }
      ~cfg:{ base with Serve.cache_capacity = 8 }
  in
  Common.enforce "E21" "churn still evicts"
    (s2.stats.Serve.cache_evictions > 0);
  Common.enforce "E21" "churn hits stay majority"
    (s2.stats.Serve.cache_hits > s2.stats.Serve.cache_misses);

  (* S3 burst battery: 16x arrival bursts against a small queue — typed
     shedding, a queue-depth breaker trip, recovery between bursts. *)
  let s3 =
    run_scenario ~name:"burst" ~graphs ~rng:(scen 3) ~n
      ~traffic:
        {
          Traffic.default with
          Traffic.burst_every = 4000;
          Traffic.burst_len = 600;
          Traffic.burst_factor = 16;
        }
      ~cfg:
        {
          base with
          Serve.queue_depth = 256;
          Serve.batch = 64;
          Serve.cost_degraded = 1;
          Serve.breaker =
            {
              Serve.window = 64;
              Serve.trip_fault_rate = 0.5;
              Serve.trip_queue = 192;
              Serve.recovery_windows = 2;
            };
        }
  in
  Common.enforce "E21" "bursts shed (typed, not dropped)"
    (s3.stats.Serve.shed > 0);
  Common.enforce "E21" "burst queue peak reaches the bound"
    (s3.stats.Serve.queue_peak >= 256);
  Common.enforce "E21" "burst trips the breaker"
    (s3.stats.Serve.breaker_trips >= 1);
  Common.enforce "E21" "burst recovery (hysteresis)"
    (s3.stats.Serve.breaker_recoveries >= 1);
  Common.enforce "E21" "burst serves degraded answers"
    (s3.stats.Serve.degraded_answers > 0);

  (* S4 faulty oracle: 75% timeouts — jittered-backoff retries, exhausted
     budgets fall back degraded, the fault-rate breaker trips and the
     degraded windows recover it. *)
  let s4 =
    run_scenario ~name:"faulty-oracle" ~graphs ~rng:(scen 4) ~n
      ~traffic:calm_traffic
      ~cfg:
        {
          base with
          Serve.oracle = Fault.policy ~timeout:0.75 ();
          Serve.retry_budget = 3;
          Serve.backoff_cap = 8;
          Serve.breaker =
            {
              Serve.window = 64;
              Serve.trip_fault_rate = 0.5;
              Serve.trip_queue = 384;
              Serve.recovery_windows = 3;
            };
        }
  in
  Common.enforce "E21" "oracle faults retry"
    (s4.stats.Serve.oracle_retries > 0);
  Common.enforce "E21" "oracle budgets exhaust to degraded"
    (s4.stats.Serve.oracle_exhausted > 0);
  Common.enforce "E21" "backoff ticks charged"
    (s4.stats.Serve.backoff_ticks > 0);
  Common.enforce "E21" "fault rate trips the breaker"
    (s4.stats.Serve.breaker_trips >= 1);
  Common.enforce "E21" "degraded windows recover it"
    (s4.stats.Serve.breaker_recoveries >= 1);

  (* S5 flaky wire: heavy drop + corruption against a bounded
     retransmission loop — frames that give up reject their requests with
     the loss accounting attached. *)
  let s5 =
    run_scenario ~name:"flaky-wire" ~graphs ~rng:(scen 5) ~n
      ~traffic:calm_traffic
      ~cfg:
        {
          base with
          Serve.wire = Fault.policy ~drop:0.25 ~corrupt:0.25 ();
          Serve.max_retransmissions = 2;
        }
  in
  Common.enforce "E21" "wire give-ups reject typed"
    (s5.stats.Serve.wire_rejections > 0);
  Common.enforce "E21" "channel.gave_up metered" (Common.delta p_gave_up > 0);

  let rows = [ s1; s2; s3; s4; s5 ] in
  let t =
    Table.create ~title:"E21 serving battery: 5 x 200k requests"
      ~columns:
        [
          "scenario"; "offered"; "answered"; "degr"; "shed"; "late";
          "hit-rate"; "p50"; "p99"; "trips"; "req/ktick";
        ]
  in
  List.iter
    (fun r ->
      let s = r.stats in
      Table.add_row t
        [
          r.name;
          Table.fint s.Serve.offered;
          Table.fint s.Serve.answered;
          pct s.Serve.degraded_answers s.Serve.answered;
          Table.fint s.Serve.shed;
          Table.fint s.Serve.deadline_rejections;
          pct s.Serve.cache_hits (s.Serve.cache_hits + s.Serve.cache_misses);
          Table.fint r.p50;
          Table.fint r.p99;
          Table.fint s.Serve.breaker_trips;
          Table.fint (s.Serve.offered * 1000 / max 1 s.Serve.clock);
        ])
    rows;
  Table.print t;

  (* Registry cross-check: the serve.* counters must agree with the summed
     per-scenario accounting — exactly once each, no silent drops. *)
  let sum f = List.fold_left (fun acc r -> acc + f r.stats) 0 rows in
  let ct =
    Common.checks [ "invariant" ] "serve.* registry vs per-scenario accounting"
  in
  Common.check ct [ "serve.offered = 5 x 200k" ]
    ~expected:(sum (fun s -> s.Serve.offered))
    ~registry:(Common.delta p_off);
  Common.check ct [ "serve.answered" ]
    ~expected:(sum (fun s -> s.Serve.answered))
    ~registry:(Common.delta p_ans);
  Common.check ct [ "serve.shed" ]
    ~expected:(sum (fun s -> s.Serve.shed))
    ~registry:(Common.delta p_shed);
  Common.check ct [ "serve.deadline_exceeded" ]
    ~expected:(sum (fun s -> s.Serve.deadline_rejections))
    ~registry:(Common.delta p_dl);
  Common.check ct [ "offered = answered + shed + deadline" ]
    ~expected:(sum (fun s -> s.Serve.offered))
    ~registry:(Common.delta p_ans + Common.delta p_shed + Common.delta p_dl);
  Common.print_checks ct
    ~failure:"E21: serve registry disagrees with the accounting";
  let sampled = List.fold_left (fun acc r -> acc + r.sampled) 0 rows in
  Common.note "every answer within its advertised eps (subsample: %d checked)"
    sampled;
  Common.note "rejected != dropped: every request got a typed response;";
  Common.note "latency/throughput are virtual ticks — wall clock on stderr only."
