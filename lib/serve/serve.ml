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

type breaker_config = {
  window : int;
  trip_fault_rate : float;
  trip_queue : int;
  recovery_windows : int;
}

type config = {
  queue_depth : int;
  shed_policy : shed_policy;
  batch : int;
  pool_threshold : int;
  bucket_capacity : int;
  rate_num : int;
  rate_den : int;
  eps_full : float;
  eps_degraded : float;
  cost_full : int;
  cost_degraded : int;
  cost_build : int;
  batch_overhead : int;
  cache_capacity : int;
  retry_budget : int;
  backoff_base : int;
  backoff_cap : int;
  max_retransmissions : int;
  breaker : breaker_config;
  oracle : Fault.policy;
  wire : Fault.policy;
}

let default_config =
  {
    queue_depth = 512;
    shed_policy = Reject_newest;
    batch = 32;
    pool_threshold = 8;
    bucket_capacity = 256;
    rate_num = 1;
    rate_den = 2;
    eps_full = 0.05;
    eps_degraded = 0.25;
    cost_full = 6;
    cost_degraded = 2;
    cost_build = 12;
    batch_overhead = 2;
    cache_capacity = 16;
    retry_budget = 4;
    backoff_base = 1;
    backoff_cap = 16;
    max_retransmissions = 4;
    breaker =
      { window = 64; trip_fault_rate = 0.5; trip_queue = 384; recovery_windows = 3 };
    oracle = Fault.no_faults;
    wire = Fault.no_faults;
  }

let queue_depth_env = "DCS_QUEUE_DEPTH"
let shed_policy_env = "DCS_SHED_POLICY"

let config_of_env cfg =
  let cfg =
    match Sys.getenv_opt queue_depth_env with
    | None | Some "" -> cfg
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some d when d >= 1 -> { cfg with queue_depth = d }
        | _ ->
            invalid_arg
              (Printf.sprintf "Serve: %s must be a positive integer, got %S"
                 queue_depth_env s))
  in
  match Sys.getenv_opt shed_policy_env with
  | None | Some "" -> cfg
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "newest" | "reject_newest" -> { cfg with shed_policy = Reject_newest }
      | "oldest" | "reject_oldest" -> { cfg with shed_policy = Reject_oldest }
      | _ ->
          invalid_arg
            (Printf.sprintf "Serve: %s must be \"newest\" or \"oldest\", got %S"
               shed_policy_env s))

let validate cfg =
  let pos name v = if v < 1 then invalid_arg ("Serve: " ^ name ^ " must be >= 1") in
  let nonneg name v =
    if v < 0 then invalid_arg ("Serve: " ^ name ^ " must be >= 0")
  in
  pos "queue_depth" cfg.queue_depth;
  pos "batch" cfg.batch;
  pos "pool_threshold" cfg.pool_threshold;
  pos "bucket_capacity" cfg.bucket_capacity;
  pos "rate_num" cfg.rate_num;
  pos "rate_den" cfg.rate_den;
  let eps name e =
    if not (e > 0. && e <= 1.) then
      invalid_arg ("Serve: " ^ name ^ " must be in (0, 1]")
  in
  eps "eps_full" cfg.eps_full;
  eps "eps_degraded" cfg.eps_degraded;
  if cfg.eps_degraded < cfg.eps_full then
    invalid_arg "Serve: eps_degraded must be >= eps_full";
  nonneg "cost_full" cfg.cost_full;
  nonneg "cost_degraded" cfg.cost_degraded;
  nonneg "cost_build" cfg.cost_build;
  nonneg "batch_overhead" cfg.batch_overhead;
  pos "cache_capacity" cfg.cache_capacity;
  pos "retry_budget" cfg.retry_budget;
  pos "backoff_base" cfg.backoff_base;
  pos "backoff_cap" cfg.backoff_cap;
  nonneg "max_retransmissions" cfg.max_retransmissions;
  pos "breaker.window" cfg.breaker.window;
  if not (cfg.breaker.trip_fault_rate >= 0. && cfg.breaker.trip_fault_rate <= 1.)
  then invalid_arg "Serve: breaker.trip_fault_rate must be in [0, 1]";
  pos "breaker.trip_queue" cfg.breaker.trip_queue;
  pos "breaker.recovery_windows" cfg.breaker.recovery_windows

(* serve.* registry meters; snapshots of these are what the determinism
   gate diffs across DCS_DOMAINS. *)
let m_offered = Metrics.counter "serve.offered"
let m_answered = Metrics.counter "serve.answered"
let m_degraded_answers = Metrics.counter "serve.answered_degraded"
let m_shed = Metrics.counter "serve.shed"
let m_queue_full = Metrics.counter "serve.queue_full"
let m_rate_limited = Metrics.counter "serve.rate_limited"
let m_wire_rejections = Metrics.counter "serve.wire_rejections"
let m_deadline = Metrics.counter "serve.deadline_exceeded"
let m_cache_hits = Metrics.counter "serve.cache_hits"
let m_cache_misses = Metrics.counter "serve.cache_misses"
let m_cache_evictions = Metrics.counter "serve.cache_evictions"
let m_cache_invalidations = Metrics.counter "serve.cache_invalidations"
let m_oracle_retries = Metrics.counter "serve.oracle_retries"
let m_oracle_exhausted = Metrics.counter "serve.oracle_exhausted"
let m_backoff = Metrics.counter "serve.backoff_ticks"
let m_breaker_trips = Metrics.counter "serve.breaker_trips"
let m_breaker_recoveries = Metrics.counter "serve.breaker_recoveries"
let m_batches = Metrics.counter "serve.batches"
let m_latency = Metrics.histogram "serve.latency_ticks"

type mode = Full | Degraded

type cache_entry = { graph : Csr.t; mutable last_use : int }

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
  cache : (int64, cache_entry) Hashtbl.t;
  mutable cache_ops : int;
  bucket : Token_bucket.t;
  wire : Channel.lossy;
  oracle : Fault.t;
  jitter_master : Prng.t;
  pool_master : Prng.t;
  mutable clock : int;
  mutable mode : mode;
  mutable win_seen : int;
  mutable win_faulted : int;
  mutable healthy_streak : int;
  (* cumulative accounting *)
  mutable s_offered : int;
  mutable s_answered : int;
  mutable s_degraded : int;
  mutable s_queue_full : int;
  mutable s_rate_limited : int;
  mutable s_wire : int;
  mutable s_deadline : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_invalidations : int;
  mutable s_retries : int;
  mutable s_exhausted : int;
  mutable s_backoff : int;
  mutable s_trips : int;
  mutable s_recoveries : int;
  mutable s_batches : int;
  mutable s_queue_peak : int;
}

let create ?domains cfg ~graphs ~rng =
  validate cfg;
  if Array.length graphs = 0 then invalid_arg "Serve.create: empty catalog";
  (* Fixed fork order: oracle, wire, jitter, pool — part of the seed
     contract. *)
  let oracle = Fault.create cfg.oracle rng in
  let wire = Channel.create_lossy (Fault.create cfg.wire rng) in
  let jitter_master = Prng.fork rng in
  let pool_master = Prng.fork rng in
  {
    cfg;
    domains;
    graphs;
    fps = Array.map Csr.fingerprint graphs;
    cache = Hashtbl.create 64;
    cache_ops = 0;
    bucket =
      Token_bucket.create ~capacity:cfg.bucket_capacity ~rate_num:cfg.rate_num
        ~rate_den:cfg.rate_den ();
    wire;
    oracle;
    jitter_master;
    pool_master;
    clock = 0;
    mode = Full;
    win_seen = 0;
    win_faulted = 0;
    healthy_streak = 0;
    s_offered = 0;
    s_answered = 0;
    s_degraded = 0;
    s_queue_full = 0;
    s_rate_limited = 0;
    s_wire = 0;
    s_deadline = 0;
    s_hits = 0;
    s_misses = 0;
    s_evictions = 0;
    s_invalidations = 0;
    s_retries = 0;
    s_exhausted = 0;
    s_backoff = 0;
    s_trips = 0;
    s_recoveries = 0;
    s_batches = 0;
    s_queue_peak = 0;
  }

let degraded t = t.mode = Degraded

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
    t.s_invalidations <- t.s_invalidations + 1;
    Metrics.inc m_cache_invalidations
  end

(* Sketch-cache lookup by graph fingerprint, control-plane only (never
   touched from pool tasks). Returns whether it was a hit; a miss installs
   the entry, evicting the least-recently-used one at capacity. *)
let cache_lookup t fp key =
  t.cache_ops <- t.cache_ops + 1;
  match Hashtbl.find_opt t.cache fp with
  | Some e ->
      e.last_use <- t.cache_ops;
      t.s_hits <- t.s_hits + 1;
      Metrics.inc m_cache_hits;
      true
  | None ->
      t.s_misses <- t.s_misses + 1;
      Metrics.inc m_cache_misses;
      if Hashtbl.length t.cache >= t.cfg.cache_capacity then begin
        (* last_use values are distinct, so the LRU victim is unique and
           the scan order cannot leak into the outcome. *)
        let victim = ref Int64.zero and oldest = ref max_int in
        Hashtbl.iter
          (fun k e -> if e.last_use < !oldest then (victim := k; oldest := e.last_use))
          t.cache;
        Hashtbl.remove t.cache !victim;
        t.s_evictions <- t.s_evictions + 1;
        Metrics.inc m_cache_evictions
      end;
      Hashtbl.add t.cache fp { graph = t.graphs.(key); last_use = t.cache_ops };
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

let verify_frame s = Result.is_ok (Checksum.unframe s)

let trip t =
  t.mode <- Degraded;
  t.healthy_streak <- 0;
  t.win_seen <- 0;
  t.win_faulted <- 0;
  t.s_trips <- t.s_trips + 1;
  Metrics.inc m_breaker_trips

let recover t =
  t.mode <- Full;
  t.healthy_streak <- 0;
  t.s_recoveries <- t.s_recoveries + 1;
  Metrics.inc m_breaker_recoveries

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
  t.s_offered <- t.s_offered + n;
  Metrics.inc ~by:n m_offered;
  let resp : response option array = Array.make n None in
  let respond pos r =
    assert (resp.(pos) = None);
    resp.(pos) <- Some r
  in
  let reject pos rej =
    (match rej with
    | Overloaded cause ->
        Metrics.inc m_shed;
        (match cause with
        | Queue_full ->
            t.s_queue_full <- t.s_queue_full + 1;
            Metrics.inc m_queue_full
        | Rate_limited ->
            t.s_rate_limited <- t.s_rate_limited + 1;
            Metrics.inc m_rate_limited
        | Wire_give_up _ ->
            t.s_wire <- t.s_wire + 1;
            Metrics.inc m_wire_rejections)
    | Deadline_exceeded _ ->
        t.s_deadline <- t.s_deadline + 1;
        Metrics.inc m_deadline);
    respond pos (Rejected rej)
  in
  let queue : int Queue.t = Queue.create () in
  let qi = ref 0 in
  let note_depth () =
    let d = Queue.length queue in
    if d > t.s_queue_peak then t.s_queue_peak <- d
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
    if t.win_seen >= cfg.breaker.window then begin
      let rate = float_of_int t.win_faulted /. float_of_int t.win_seen in
      (match t.mode with
      | Full -> if rate >= cfg.breaker.trip_fault_rate then trip t
      | Degraded ->
          let healthy =
            rate <= cfg.breaker.trip_fault_rate /. 2.
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
            let hit = cache_lookup t t.fps.(r.Traffic.key) r.Traffic.key in
            (pos, r, t.graphs.(r.Traffic.key), hit))
          live
      in
      let batch_rng = Prng.split t.pool_master t.s_batches in
      t.s_batches <- t.s_batches + 1;
      Metrics.inc m_batches;
      (* Each slot is a pure function of the trace seq (fault and jitter
         streams are split by it), so the inline fast path below the
         dispatch threshold computes bit for bit what the pool would. *)
      let compute_one p =
        let _, r, g, hit = prepared.(p) in
            let exact =
              Csr.cut_value g (Cut.random (Prng.create r.Traffic.cut_seed) ~n:(Csr.n g))
            in
            let build = if hit then 0 else cfg.cost_build in
            match mode with
            | Degraded ->
                {
                  c_value = quantize ~eps:cfg.eps_degraded exact;
                  c_eps = cfg.eps_degraded;
                  c_degraded = true;
                  c_cost = cfg.cost_degraded + build;
                  c_retries = 0;
                  c_exhausted = false;
                  c_backoff = 0;
                  c_hit = hit;
                }
            | Full -> (
                (* Per-request injector and jitter streams are split by the
                   trace seq, so retries replay identically at any domain
                   count or batch composition. *)
                let inj = Fault.split t.oracle r.Traffic.seq in
                let jrng = Prng.split t.jitter_master r.Traffic.seq in
                let o =
                  Retry.with_jittered_backoff ~budget:cfg.retry_budget
                    ~base:cfg.backoff_base ~cap:cfg.backoff_cap ~rng:jrng
                    (fun ~attempt:_ -> if Fault.times_out inj then None else Some ())
                in
                let retries = o.Retry.attempts - 1 in
                match o.Retry.value with
                | Some () ->
                    {
                      c_value = quantize ~eps:cfg.eps_full exact;
                      c_eps = cfg.eps_full;
                      c_degraded = false;
                      c_cost = cfg.cost_full + o.Retry.backoff_units + build;
                      c_retries = retries;
                      c_exhausted = false;
                      c_backoff = o.Retry.backoff_units;
                      c_hit = hit;
                    }
                | None ->
                    {
                      c_value = quantize ~eps:cfg.eps_degraded exact;
                      c_eps = cfg.eps_degraded;
                      c_degraded = true;
                      c_cost = cfg.cost_degraded + o.Retry.backoff_units + build;
                      c_retries = retries;
                      c_exhausted = true;
                      c_backoff = o.Retry.backoff_units;
                      c_hit = hit;
                    })
      in
      let results =
        if Array.length prepared < cfg.pool_threshold then
          Array.init (Array.length prepared) compute_one
        else
          fst
            (Pool.run_supervised ?domains:t.domains ~rng:batch_rng
               ~n:(Array.length prepared)
               (fun ctx -> compute_one ctx.Pool.index))
      in
      (* Completion times: batch dispatch overhead, then requests finish in
         batch order, each charging its own cost (compute + backoff +
         rebuild). *)
      let tserv = ref (t.clock + cfg.batch_overhead) in
      Array.iteri
        (fun p (pos, (r : Traffic.request), _, _) ->
          let c = results.(p) in
          tserv := !tserv + c.c_cost;
          t.win_seen <- t.win_seen + 1;
          if c.c_retries > 0 || c.c_exhausted then
            t.win_faulted <- t.win_faulted + 1;
          if c.c_retries > 0 then begin
            t.s_retries <- t.s_retries + c.c_retries;
            Metrics.inc ~by:c.c_retries m_oracle_retries
          end;
          if c.c_exhausted then begin
            t.s_exhausted <- t.s_exhausted + 1;
            Metrics.inc m_oracle_exhausted
          end;
          if c.c_backoff > 0 then begin
            t.s_backoff <- t.s_backoff + c.c_backoff;
            Metrics.inc ~by:c.c_backoff m_backoff
          end;
          let latency = !tserv - r.arrival in
          if latency > r.deadline then
            reject pos (Deadline_exceeded { lateness = latency - r.deadline })
          else begin
            t.s_answered <- t.s_answered + 1;
            Metrics.inc m_answered;
            if c.c_degraded then begin
              t.s_degraded <- t.s_degraded + 1;
              Metrics.inc m_degraded_answers
            end;
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
  {
    offered = t.s_offered;
    answered = t.s_answered;
    degraded_answers = t.s_degraded;
    shed = t.s_queue_full + t.s_rate_limited + t.s_wire;
    queue_full = t.s_queue_full;
    rate_limited = t.s_rate_limited;
    wire_rejections = t.s_wire;
    deadline_rejections = t.s_deadline;
    cache_hits = t.s_hits;
    cache_misses = t.s_misses;
    cache_evictions = t.s_evictions;
    cache_invalidations = t.s_invalidations;
    oracle_retries = t.s_retries;
    oracle_exhausted = t.s_exhausted;
    backoff_ticks = t.s_backoff;
    breaker_trips = t.s_trips;
    breaker_recoveries = t.s_recoveries;
    batches = t.s_batches;
    queue_peak = t.s_queue_peak;
    clock = t.clock;
  }
