(* dcutd — the cut-query serving daemon, driven to completion over a
   deterministic synthetic trace.

   Builds a catalog of random weighted graphs, generates an open-loop
   trace (seeded arrivals, hot-key skew, optional bursts), and serves it
   through the admission-controlled [Serve] engine: token-bucket rate
   limiting, a bounded queue with explicit shedding, a fingerprint-keyed
   sketch cache, jittered-backoff oracle retries and circuit-breaking to a
   degraded (wider-eps) mode. Everything after the seed is deterministic —
   latency and throughput are virtual ticks, so two invocations with the
   same flags print byte-identical reports at any DCS_DOMAINS.

   The flags are the only configuration. Values the server, the traffic
   generator or the fault injectors would reject are reported before
   serving, as a usage error (exit 124). *)

open Cmdliner
open Dcs

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the observability registry to stderr after the run. The \
           DCS_METRICS environment variable is honored either way.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let requests_arg =
  Arg.(
    value & opt int 100_000
    & info [ "requests" ] ~docv:"N" ~doc:"Trace length (queries to replay).")

let keys_arg =
  Arg.(value & opt int 64 & info [ "keys" ] ~doc:"Graphs in the catalog.")

let hot_arg =
  Arg.(
    value & opt float 0.95
    & info [ "hot-fraction" ] ~doc:"Probability a request targets the hot set.")

let gap_arg =
  Arg.(
    value & opt int 8
    & info [ "mean-gap" ] ~doc:"Mean inter-arrival gap, virtual ticks.")

let burst_every_arg =
  Arg.(
    value & opt int 0
    & info [ "burst-every" ] ~docv:"TICKS"
        ~doc:"Tick period of burst onsets (0 disables bursts).")

let burst_len_arg =
  Arg.(value & opt int 250 & info [ "burst-len" ] ~doc:"Burst duration, ticks.")

let burst_factor_arg =
  Arg.(
    value & opt int 10
    & info [ "burst-factor" ] ~doc:"Arrival-rate multiplier inside a burst.")

let deadline_arg =
  Arg.(
    value & opt int 4000
    & info [ "deadline" ] ~doc:"Per-request completion budget, ticks.")

let queue_depth_arg =
  Arg.(
    value
    & opt int Serve.default_config.Serve.queue_depth
    & info [ "queue-depth" ] ~docv:"N" ~doc:"Admission queue bound.")

let shed_policy_arg =
  Arg.(
    value
    & opt
        (enum [ ("newest", Serve.Reject_newest); ("oldest", Serve.Reject_oldest) ])
        Serve.default_config.Serve.shed_policy
    & info [ "shed-policy" ] ~docv:"WHO"
        ~doc:"Who is shed on queue overflow: newest | oldest.")

let oracle_timeout_arg =
  Arg.(
    value & opt float 0.0
    & info [ "oracle-timeout" ] ~docv:"RATE"
        ~doc:"Oracle timeout injection rate (retried with jittered backoff).")

let drop_arg =
  Arg.(
    value & opt float 0.0
    & info [ "wire-drop" ] ~docv:"RATE" ~doc:"Request-frame drop rate.")

let corrupt_arg =
  Arg.(
    value & opt float 0.0
    & info [ "wire-corrupt" ] ~docv:"RATE" ~doc:"Request-frame corruption rate.")

let retries_arg =
  Arg.(
    value & opt int 4
    & info [ "retries" ] ~docv:"N" ~doc:"Oracle attempts per request (>= 1).")

let retransmissions_arg =
  Arg.(
    value & opt int 4
    & info [ "retransmissions" ] ~docv:"N"
        ~doc:"Wire re-sends before a frame gives up.")

let percentile sorted p =
  let len = Array.length sorted in
  if len = 0 then 0 else sorted.((len - 1) * p / 100)

let run ~metrics ~seed ~requests traffic cfg =
  let rng = Prng.create seed in
  let catalog_rng = Prng.fork rng in
  let graphs =
    Array.init traffic.Traffic.keys (fun i ->
        let r = Prng.split catalog_rng i in
        let g0 = Generators.erdos_renyi_connected r ~n:48 ~p:0.12 in
        Csr.of_ugraph (Generators.random_multigraph_weights r g0 ~max_weight:8))
  in
  let reqs = Traffic.generate (Prng.fork rng) traffic ~n:requests in
  let srv = Serve.create cfg ~graphs ~rng:(Prng.fork rng) in
  let responses = Serve.run srv reqs in
  let s = Serve.stats srv in
  let lats =
    Array.of_list
      (List.filter_map
         (function Serve.Answered a -> Some a.Serve.latency | _ -> None)
         (Array.to_list responses))
  in
  Array.sort compare lats;
  Printf.printf "offered   %d\n" s.Serve.offered;
  Printf.printf "answered  %d (%d degraded)\n" s.Serve.answered
    s.Serve.degraded_answers;
  Printf.printf "shed      %d (queue %d, rate %d, wire %d)\n" s.Serve.shed
    s.Serve.queue_full s.Serve.rate_limited s.Serve.wire_rejections;
  Printf.printf "late      %d\n" s.Serve.deadline_rejections;
  Printf.printf "cache     %d hits / %d misses / %d evictions\n"
    s.Serve.cache_hits s.Serve.cache_misses s.Serve.cache_evictions;
  Printf.printf "oracle    %d retries, %d exhausted, %d backoff ticks\n"
    s.Serve.oracle_retries s.Serve.oracle_exhausted s.Serve.backoff_ticks;
  Printf.printf "breaker   %d trips, %d recoveries (degraded now: %b)\n"
    s.Serve.breaker_trips s.Serve.breaker_recoveries (Serve.degraded srv);
  Printf.printf "latency   p50 %d  p99 %d ticks\n" (percentile lats 50)
    (percentile lats 99);
  Printf.printf "clock     %d ticks (%d req/ktick), queue peak %d\n"
    s.Serve.clock
    (s.Serve.offered * 1000 / max 1 s.Serve.clock)
    s.Serve.queue_peak;
  if metrics then prerr_string (Obs.Report.render ());
  Obs.Report.dump_env ();
  if s.Serve.answered + s.Serve.shed + s.Serve.deadline_rejections
     <> s.Serve.offered
  then begin
    Printf.eprintf "accounting violation: a request was silently dropped\n";
    1
  end
  else 0

let serve metrics seed requests keys hot_fraction mean_gap burst_every
    burst_len burst_factor deadline queue_depth shed_policy oracle_timeout
    drop corrupt retries retransmissions =
  match
    if requests < 0 then invalid_arg "requests must be >= 0";
    let traffic =
      { Traffic.keys; hot_keys = max 1 (keys / 8); hot_fraction; mean_gap;
        burst_every; burst_len; burst_factor; deadline }
    in
    Traffic.validate traffic;
    let cfg =
      { Serve.default_config with queue_depth; shed_policy;
        oracle = Fault.policy ~timeout:oracle_timeout ();
        wire = Fault.policy ~drop ~corrupt ();
        retry_budget = retries; max_retransmissions = retransmissions }
    in
    Serve.validate cfg;
    (traffic, cfg)
  with
  | exception Invalid_argument reason -> `Error (false, reason)
  | traffic, cfg -> `Ok (run ~metrics ~seed ~requests traffic cfg)

let () =
  let term =
    Term.(
      ret
        (const serve $ metrics_arg $ seed_arg $ requests_arg $ keys_arg
       $ hot_arg $ gap_arg $ burst_every_arg $ burst_len_arg $ burst_factor_arg
       $ deadline_arg $ queue_depth_arg $ shed_policy_arg $ oracle_timeout_arg
       $ drop_arg $ corrupt_arg $ retries_arg $ retransmissions_arg))
  in
  let info =
    Cmd.info "dcutd" ~version:"1.0.0"
      ~doc:
        "overload-tolerant cut-query serving daemon (deterministic synthetic \
         traffic)"
  in
  exit (Cmd.eval' (Cmd.v info term))
