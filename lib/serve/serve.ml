module Prng = Dcs_util.Prng
module Fault = Dcs_util.Fault
module Retry = Dcs_util.Retry
module Pool = Dcs_util.Pool
module Token_bucket = Dcs_util.Token_bucket
module Checksum = Dcs_util.Checksum
module Metrics = Dcs_obs_core.Metrics
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut
module Channel = Dcs_comm.Channel

type shed_policy = Reject_newest | Reject_oldest

type overload_cause =
  | Queue_full
  | Rate_limited
  | Wire_give_up of Channel.give_up

type rejection =
  | Overloaded of overload_cause
  | Deadline_exceeded of { lateness : int }

type reply = {
  value : float;
  eps : float;
  degraded : bool;
  latency : int;
  cache_hit : bool;
}

type response = Answered of reply | Rejected of rejection

type breaker_config = { trip_queue : int; recovery_windows : int }

type config = {
  queue_depth : int;
  shed_policy : shed_policy;
  batch : int;
  cost_degraded : int;
  cache_capacity : int;
  retry_budget : int;
  backoff_cap : int;
  max_retransmissions : int;
  breaker : breaker_config;
  oracle : Fault.policy;
  wire : Fault.policy;
}

(* Engine constants: every program serves at these values. *)
let eps_full = 0.05 (* advertised accuracy at full fidelity *)
let eps_degraded = 0.25 (* advertised accuracy in degraded mode *)
let bucket_capacity = 256 (* token-bucket burst, tokens *)
let rate_num = 1 (* bucket refill: rate_num / rate_den tokens per tick *)
let rate_den = 2
let cost_full = 6 (* ticks per full-fidelity evaluation *)
let cost_build = 12 (* ticks to (re)build a cache-missed sketch *)
let batch_overhead = 2 (* ticks per service batch *)
let backoff_base = 1 (* jittered-backoff base, ticks *)
let breaker_window = 64 (* requests per breaker window *)
let trip_fault_rate = 0.5 (* a window's oracle fault rate that trips it *)

let default_config =
  {
    queue_depth = 512;
    shed_policy = Reject_newest;
    batch = 32;
    cost_degraded = 2;
    cache_capacity = 16;
    retry_budget = 4;
    backoff_cap = 16;
    max_retransmissions = 4;
    breaker = { trip_queue = 384; recovery_windows = 3 };
    oracle = Fault.no_faults;
    wire = Fault.no_faults;
  }

let validate cfg =
  let pos name v = if v < 1 then invalid_arg ("Serve: " ^ name ^ " must be >= 1") in
  let nonneg name v =
    if v < 0 then invalid_arg ("Serve: " ^ name ^ " must be >= 0")
  in
  pos "queue_depth" cfg.queue_depth;
  pos "batch" cfg.batch;
  nonneg "cost_degraded" cfg.cost_degraded;
  pos "cache_capacity" cfg.cache_capacity;
  pos "retry_budget" cfg.retry_budget;
  pos "backoff_cap" cfg.backoff_cap;
  nonneg "max_retransmissions" cfg.max_retransmissions;
  pos "breaker.trip_queue" cfg.breaker.trip_queue;
  pos "breaker.recovery_windows" cfg.breaker.recovery_windows

(* The serve.* registry counters; snapshots of these are what the
   determinism gate diffs across DCS_DOMAINS. Each also has a slot in every
   server's [counts], so [stats] reads one server while the registry sums
   the process. *)
type tally = { slot : int; meter : Metrics.counter }

let tallies = ref 0

let tally name =
  let slot = !tallies in
  incr tallies;
  { slot; meter = Metrics.counter ("serve." ^ name) }

let offered = tally "offered"
let answered = tally "answered"
let degraded_answers = tally "answered_degraded"
let shed = tally "shed"
let queue_full = tally "queue_full"
let rate_limited = tally "rate_limited"
let wire_rejections = tally "wire_rejections"
let deadline_rejections = tally "deadline_exceeded"
let cache_hits = tally "cache_hits"
let cache_misses = tally "cache_misses"
let cache_evictions = tally "cache_evictions"
let cache_invalidations = tally "cache_invalidations"
let oracle_retries = tally "oracle_retries"
let oracle_exhausted = tally "oracle_exhausted"
let backoff_ticks = tally "backoff_ticks"
let breaker_trips = tally "breaker_trips"
let breaker_recoveries = tally "breaker_recoveries"
let batches = tally "batches"
let m_latency = Metrics.histogram "serve.latency_ticks"

type mode = Full | Degraded

type stats = {
  offered : int;
  answered : int;
  degraded_answers : int;
  shed : int;
  queue_full : int;
  rate_limited : int;
  wire_rejections : int;
  deadline_rejections : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_invalidations : int;
  oracle_retries : int;
  oracle_exhausted : int;
  backoff_ticks : int;
  breaker_trips : int;
  breaker_recoveries : int;
  batches : int;
  queue_peak : int;
  clock : int;
}

type t = {
  cfg : config;
  domains : int option;
  graphs : Csr.t array;
  fps : int64 array;
  cache : (int64, int ref) Hashtbl.t; (* fingerprint -> last use *)
  mutable cache_ops : int;
  bucket : Token_bucket.t;
  wire : Channel.lossy;
  oracle : Fault.t;
  jitter_master : Prng.t;
  mutable clock : int;
  mutable mode : mode;
  mutable win_seen : int;
  mutable win_faulted : int;
  mutable healthy_streak : int;
  counts : int array; (* by tally slot, since [create] *)
  mutable queue_peak : int;
}

let create ?domains cfg ~graphs ~rng =
  validate cfg;
  if Array.length graphs = 0 then invalid_arg "Serve.create: empty catalog";
  (* Fixed fork order: oracle, wire, jitter — part of the seed contract. *)
  let oracle = Fault.create cfg.oracle rng in
  let wire = Channel.create_lossy (Fault.create cfg.wire rng) in
  let jitter_master = Prng.fork rng in
  {
    cfg;
    domains;
    graphs;
    fps = Array.map Csr.fingerprint graphs;
    cache = Hashtbl.create 64;
    cache_ops = 0;
    bucket = Token_bucket.create ~capacity:bucket_capacity ~rate_num ~rate_den;
    wire;
    oracle;
    jitter_master;
    clock = 0;
    mode = Full;
    win_seen = 0;
    win_faulted = 0;
    healthy_streak = 0;
    counts = Array.make !tallies 0;
    queue_peak = 0;
  }

let degraded t = t.mode = Degraded

let count ?(by = 1) t c =
  t.counts.(c.slot) <- t.counts.(c.slot) + by;
  Metrics.inc ~by c.meter

(* Live catalog mutation: the streaming layer re-freezes a graph and swaps
   it in here. Invalidation is keyed exactly like lookup — by fingerprint —
   so a stale sketch entry can never answer for the new content; if the
   content is unchanged (equal fingerprint) the cached sketch stays warm.
   Control-plane only, like every other cache touch. *)
let update_graph t ~key csr =
  if key < 0 || key >= Array.length t.graphs then
    invalid_arg "Serve.update_graph: key outside the catalog";
  let old_fp = t.fps.(key) in
  let fp = Csr.fingerprint csr in
  t.graphs.(key) <- csr;
  t.fps.(key) <- fp;
  if not (Int64.equal fp old_fp) then begin
    Hashtbl.remove t.cache old_fp;
    count t cache_invalidations
  end

(* Sketch-cache lookup by graph fingerprint, control-plane only (never
   touched from pool tasks). Returns whether it was a hit; a miss installs
   the entry, evicting the least-recently-used one at capacity. *)
let cache_lookup t fp =
  t.cache_ops <- t.cache_ops + 1;
  match Hashtbl.find_opt t.cache fp with
  | Some last_use ->
      last_use := t.cache_ops;
      count t cache_hits;
      true
  | None ->
      count t cache_misses;
      if Hashtbl.length t.cache >= t.cfg.cache_capacity then begin
        (* last-use ticks are distinct, so the LRU victim is unique and
           the scan order cannot leak into the outcome. *)
        let victim = ref Int64.zero and oldest = ref max_int in
        Hashtbl.iter
          (fun k u -> if !u < !oldest then (victim := k; oldest := !u))
          t.cache;
        Hashtbl.remove t.cache !victim;
        count t cache_evictions
      end;
      Hashtbl.add t.cache fp (ref t.cache_ops);
      false

(* Snap a value to the nearest power of (1 + eps): the quantized answer is
   within a factor (1 + eps)^(1/2) of exact, i.e. relative error < eps/2 —
   comfortably inside the advertised eps. This is the honest "sketch" model
   for serving accuracy: degraded mode quantizes coarser. *)
let quantize ~eps v =
  if v <= 0. then 0.
  else (1. +. eps) ** Float.round (log v /. log (1. +. eps))

type comp = {
  c_value : float;
  c_eps : float;
  c_degraded : bool;
  c_cost : int;
  c_retries : int;
  c_exhausted : bool;
  c_backoff : int;
  c_hit : bool;
}

let frame_of_group group =
  let b = Buffer.create (32 * Array.length group) in
  Array.iter
    (fun (r : Traffic.request) ->
      Buffer.add_string b
        (Printf.sprintf "%d %d %d %d %d\n" r.seq r.arrival r.key r.cut_seed
           r.deadline))
    group;
  Checksum.frame (Buffer.contents b)

let verify_frame ~attempt:_ s = Result.is_ok (Checksum.unframe s)

let trip t =
  t.mode <- Degraded;
  t.healthy_streak <- 0;
  t.win_seen <- 0;
  t.win_faulted <- 0;
  count t breaker_trips

let recover t =
  t.mode <- Full;
  t.healthy_streak <- 0;
  count t breaker_recoveries

(* Batches at least this big fan out on Pool.parallel_init; smaller ones
   run inline on the control domain. Each slot is a pure function of the
   trace seq (fault and jitter streams are split by it), so the inline path
   computes bit for bit what the pool would. *)
let pool_threshold = 8

let run t (reqs : Traffic.request array) =
  let cfg = t.cfg in
  let n = Array.length reqs in
  for i = 0 to n - 1 do
    if reqs.(i).Traffic.key < 0 || reqs.(i).Traffic.key >= Array.length t.graphs
    then invalid_arg "Serve.run: request key outside the catalog";
    if i > 0 && reqs.(i).Traffic.arrival < reqs.(i - 1).Traffic.arrival then
      invalid_arg "Serve.run: arrivals must be nondecreasing"
  done;
  if n > 0 && reqs.(0).Traffic.arrival < t.clock then
    invalid_arg "Serve.run: trace starts before the server clock";
  count ~by:n t offered;
  let resp : response option array = Array.make n None in
  let respond pos r =
    assert (resp.(pos) = None);
    resp.(pos) <- Some r
  in
  let reject pos rej =
    (match rej with
    | Overloaded cause ->
        count t shed;
        count t
          (match cause with
          | Queue_full -> queue_full
          | Rate_limited -> rate_limited
          | Wire_give_up _ -> wire_rejections)
    | Deadline_exceeded _ -> count t deadline_rejections);
    respond pos (Rejected rej)
  in
  let queue : int Queue.t = Queue.create () in
  let qi = ref 0 in
  let note_depth () =
    let d = Queue.length queue in
    if d > t.queue_peak then t.queue_peak <- d
  in
  (* Ingest every arrival due at the current clock: same-tick groups share
     one CRC frame over the lossy wire, then each surviving request faces
     the token bucket and the bounded queue. *)
  let ingest_due () =
    while !qi < n && reqs.(!qi).Traffic.arrival <= t.clock do
      let start = !qi in
      let a = reqs.(start).Traffic.arrival in
      while !qi < n && reqs.(!qi).Traffic.arrival = a do incr qi done;
      let group = Array.sub reqs start (!qi - start) in
      let framed = frame_of_group group in
      match
        Channel.transmit_reliable t.wire ~verify:verify_frame
          ~max_retransmissions:cfg.max_retransmissions
          ~bits:(8 * String.length framed)
          framed
      with
      | Error gu ->
          Array.iteri
            (fun k _ -> reject (start + k) (Overloaded (Wire_give_up gu)))
            group
      | Ok _ ->
          Array.iteri
            (fun k (r : Traffic.request) ->
              let pos = start + k in
              if not (Token_bucket.try_take t.bucket ~now:r.arrival) then
                reject pos (Overloaded Rate_limited)
              else if Queue.length queue < cfg.queue_depth then
                Queue.push pos queue
              else
                match cfg.shed_policy with
                | Reject_newest -> reject pos (Overloaded Queue_full)
                | Reject_oldest ->
                    let old = Queue.pop queue in
                    reject old (Overloaded Queue_full);
                    Queue.push pos queue)
            group;
          note_depth ()
    done;
    if t.mode = Full && Queue.length queue >= cfg.breaker.trip_queue then trip t
  in
  let breaker_after_batch () =
    if t.win_seen >= breaker_window then begin
      let rate = float_of_int t.win_faulted /. float_of_int t.win_seen in
      (match t.mode with
      | Full -> if rate >= trip_fault_rate then trip t
      | Degraded ->
          let healthy =
            rate <= trip_fault_rate /. 2.
            && Queue.length queue <= cfg.breaker.trip_queue / 2
          in
          if healthy then begin
            t.healthy_streak <- t.healthy_streak + 1;
            if t.healthy_streak >= cfg.breaker.recovery_windows then recover t
          end
          else t.healthy_streak <- 0);
      t.win_seen <- 0;
      t.win_faulted <- 0
    end
  in
  let serve_batch () =
    let b = min cfg.batch (Queue.length queue) in
    let picked = Array.init b (fun _ -> Queue.pop queue) in
    (* Requests that already outlived their deadline in the queue are
       rejected without burning compute. *)
    let live =
      Array.of_list
        (List.filter
           (fun pos ->
             let r = reqs.(pos) in
             let wait = t.clock - r.Traffic.arrival in
             if wait > r.Traffic.deadline then begin
               reject pos
                 (Deadline_exceeded { lateness = wait - r.Traffic.deadline });
               false
             end
             else true)
           (Array.to_list picked))
    in
    if Array.length live > 0 then begin
      let mode = t.mode in
      (* Control-plane cache resolution: pool tasks never mutate the
         cache, so DCS_DOMAINS cannot reorder hits and misses. *)
      let prepared =
        Array.map
          (fun pos ->
            let r = reqs.(pos) in
            let hit = cache_lookup t t.fps.(r.Traffic.key) in
            (pos, r, t.graphs.(r.Traffic.key), hit))
          live
      in
      count t batches;
      let compute_one p =
        let _, r, g, hit = prepared.(p) in
        let exact =
          Csr.cut_value g (Cut.random (Prng.create r.Traffic.cut_seed) ~n:(Csr.n g))
        in
        let full, retries, backoff =
          match mode with
          | Degraded -> (false, 0, 0)
          | Full ->
              (* Per-request injector and jitter streams are split by the
                 trace seq, so retries replay identically at any domain
                 count or batch composition. *)
              let inj = Fault.split t.oracle r.Traffic.seq in
              let jrng = Prng.split t.jitter_master r.Traffic.seq in
              let o =
                Retry.with_jittered_backoff ~budget:cfg.retry_budget
                  ~base:backoff_base ~cap:cfg.backoff_cap ~rng:jrng
                  (fun ~attempt:_ -> if Fault.times_out inj then None else Some ())
              in
              ( Option.is_some o.Retry.value,
                o.Retry.attempts - 1,
                o.Retry.backoff_units )
        in
        let eps, cost =
          if full then (eps_full, cost_full) else (eps_degraded, cfg.cost_degraded)
        in
        {
          c_value = quantize ~eps exact;
          c_eps = eps;
          c_degraded = not full;
          c_cost = cost + backoff + (if hit then 0 else cost_build);
          c_retries = retries;
          c_exhausted = (mode = Full && not full);
          c_backoff = backoff;
          c_hit = hit;
        }
      in
      let results =
        let k = Array.length prepared in
        if k < pool_threshold then Array.init k compute_one
        else Pool.parallel_init ?domains:t.domains ~n:k compute_one
      in
      (* Completion times: batch dispatch overhead, then requests finish in
         batch order, each charging its own cost (compute + backoff +
         rebuild). *)
      let tserv = ref (t.clock + batch_overhead) in
      Array.iteri
        (fun p (pos, (r : Traffic.request), _, _) ->
          let c = results.(p) in
          tserv := !tserv + c.c_cost;
          t.win_seen <- t.win_seen + 1;
          if c.c_retries > 0 || c.c_exhausted then
            t.win_faulted <- t.win_faulted + 1;
          count ~by:c.c_retries t oracle_retries;
          if c.c_exhausted then count t oracle_exhausted;
          count ~by:c.c_backoff t backoff_ticks;
          let latency = !tserv - r.arrival in
          if latency > r.deadline then
            reject pos (Deadline_exceeded { lateness = latency - r.deadline })
          else begin
            count t answered;
            if c.c_degraded then count t degraded_answers;
            Metrics.observe m_latency latency;
            respond pos
              (Answered
                 {
                   value = c.c_value;
                   eps = c.c_eps;
                   degraded = c.c_degraded;
                   latency;
                   cache_hit = c.c_hit;
                 })
          end)
        prepared;
      t.clock <- !tserv;
      breaker_after_batch ()
    end
  in
  while !qi < n || not (Queue.is_empty queue) do
    if Queue.is_empty queue && !qi < n && reqs.(!qi).Traffic.arrival > t.clock
    then t.clock <- reqs.(!qi).Traffic.arrival;
    ingest_due ();
    if not (Queue.is_empty queue) then serve_batch ()
  done;
  (* Zero silent drops, structurally: every slot answered exactly once. *)
  Array.map
    (function
      | Some r -> r
      | None -> failwith "Serve.run: request left without a response")
    resp

let stats t =
  let v c = t.counts.(c.slot) in
  {
    offered = v offered;
    answered = v answered;
    degraded_answers = v degraded_answers;
    shed = v shed;
    queue_full = v queue_full;
    rate_limited = v rate_limited;
    wire_rejections = v wire_rejections;
    deadline_rejections = v deadline_rejections;
    cache_hits = v cache_hits;
    cache_misses = v cache_misses;
    cache_evictions = v cache_evictions;
    cache_invalidations = v cache_invalidations;
    oracle_retries = v oracle_retries;
    oracle_exhausted = v oracle_exhausted;
    backoff_ticks = v backoff_ticks;
    breaker_trips = v breaker_trips;
    breaker_recoveries = v breaker_recoveries;
    batches = v batches;
    queue_peak = t.queue_peak;
    clock = t.clock;
  }
