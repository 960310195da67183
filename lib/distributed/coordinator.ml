module Ugraph = Dcs_graph.Ugraph
module Cut = Dcs_graph.Cut
module Serialize = Dcs_graph.Serialize
module Sketch = Dcs_sketch.Sketch
module Prng = Dcs_util.Prng
module Fault = Dcs_util.Fault
module Channel = Dcs_comm.Channel
module Metrics = Dcs_obs_core.Metrics
module Trace = Dcs_obs_core.Trace

(* Registry mirrors of the per-run [fault_report] meters: each run bumps
   these by the report's values, so a registry delta over a batch equals the
   field-wise sum of the batch's reports (test/test_fault_golden.ml checks
   that identity). *)
let m_runs = Metrics.counter "coord.runs"
let m_shards = Metrics.counter "coord.shards"
let m_retrans = Metrics.counter "coord.retransmissions"
let m_drops = Metrics.counter "coord.drops_seen"
let m_corrupt = Metrics.counter "coord.corruptions_detected"
let m_stragglers = Metrics.counter "coord.stragglers"
let m_spec = Metrics.counter "coord.speculative_retransmissions"
let m_coarse_lost = Metrics.counter "coord.coarse_lost"
let m_fine_lost = Metrics.counter "coord.fine_lost"
let m_backoff = Metrics.counter "coord.backoff_units"
let m_candidates = Metrics.histogram ~buckets:12 "coord.candidate_cuts"

type config = { eps : float; karger_trials : int }

(* The paper uses (1 ± 0.2) coarse sketches; at laptop scale the ln n/ε²
   oversampling of Benczúr–Karger only drops below 1 for very dense graphs,
   so the coarse accuracy is 0.5, with a correspondingly wide candidate
   factor of 2. EXPERIMENTS.md discusses the regime. *)
let eps_coarse = 0.5
let candidate_factor = 2.0

let default_config ~eps = { eps; karger_trials = 200 }

let validate cfg =
  if not (cfg.eps > 0.0 && cfg.eps < 1.0) then
    invalid_arg "Coordinator: eps must be in (0, 1)";
  if cfg.karger_trials < 1 then
    invalid_arg "Coordinator: karger_trials must be >= 1"

type result = {
  estimate : float;
  coarse_estimate : float;
  cut : Dcs_graph.Cut.t;
  candidates : int;
  forall_bits : int;
  foreach_bits : int;
  total_bits : int;
  naive_bits : int;
  fullacc_forall_bits : int;
}

type fault_report = {
  retransmissions : int;
  drops_seen : int;
  corruptions_detected : int;
  stragglers : int;
  speculative_retransmissions : int;
  coarse_lost : int;
  fine_lost : int;
  checksum_bits : int;
  retransmit_bits : int;
  control_bits : int;
  backoff_units : int;
  eps_effective : float;
  degraded : bool;
}

type robust_result = { base : result; report : fault_report }

(* Re-requests allowed per sketch beyond the first send. *)
let retry_budget = 4

(* Recovery meters summed over one run's sketch deliveries. *)
type tally = {
  mutable retrans : int;
  mutable drops : int;
  mutable corrupt : int;
  mutable stragglers : int;
  mutable spec : int;
  mutable backoff : int;
}

(* One server→coordinator sketch delivery: the checksummed frame goes
   through the channel's bounded loop, whose [verify] is the receiver. It
   rejects a corrupted frame and a straggler (delivered past the
   per-sketch deadline, as the policy's timeout rate models); a straggler
   is re-requested speculatively and parsed on arrival, and the newest
   copy that parses is the fallback, so a corrupted late copy never
   displaces an intact earlier one. Past the budget the sketch is lost
   only when no straggler copy parsed, counted as one corruption if any
   arrived. [f] failed attempts wait Σ 2^a = 2^f − 1 backoff units.
   Returns the payload bits and the sketch received, if any.

   When the injector is inactive no frame can be damaged, so the textual
   round-trip is skipped entirely (the metering is identical either way):
   this keeps the idealized pipeline's fast path — and makes [min_cut]
   literally the zero-fault instance of the robust one. *)
let deliver_sketch lossy ~fault tally h =
  let payload_bits = Sketch.ugraph_encoding_bits h in
  let bits = payload_bits + Sketch.checksum_bits in
  if not (Fault.active fault) then begin
    ignore (Channel.transmit lossy ~bits "");
    (payload_bits, Some h)
  end
  else begin
    let got = ref None and late = ref None and straggled = ref false in
    let verify ~attempt s =
      if Fault.times_out fault then begin
        tally.stragglers <- tally.stragglers + 1;
        if attempt < retry_budget then tally.spec <- tally.spec + 1;
        straggled := true;
        Result.iter (fun g -> late := Some g) (Serialize.ugraph_of_frame s);
        false
      end
      else
        match Serialize.ugraph_of_frame s with
        | Ok g ->
            got := Some (g, attempt);
            true
        | Error _ ->
            tally.corrupt <- tally.corrupt + 1;
            false
    in
    let drops0 = Channel.lossy_drops lossy in
    let outcome =
      Channel.transmit_reliable lossy ~verify ~max_retransmissions:retry_budget
        ~bits (Serialize.ugraph_to_frame h)
    in
    (* The accepted attempt's index counts the failures before it. *)
    let failed = match !got with Some (_, a) -> a | None -> retry_budget + 1 in
    tally.drops <- tally.drops + Channel.lossy_drops lossy - drops0;
    tally.retrans <- tally.retrans + min failed retry_budget;
    tally.backoff <- tally.backoff + (1 lsl failed) - 1;
    match outcome with
    | Ok _ -> (payload_bits, Option.map fst !got)
    | Error _ ->
        if !straggled && Option.is_none !late then
          tally.corrupt <- tally.corrupt + 1;
        (payload_bits, !late)
  end

let min_cut_robust rng cfg ~fault shards =
  validate cfg;
  if Array.length shards = 0 then invalid_arg "Coordinator.min_cut: no shards";
  Trace.with_span "coord.min_cut" @@ fun () ->
  Metrics.inc m_runs;
  Metrics.inc ~by:(Array.length shards) m_shards;
  let n = Ugraph.n shards.(0) in
  let lossy = Channel.create_lossy fault in
  let tally =
    { retrans = 0; drops = 0; corrupt = 0; stragglers = 0; spec = 0; backoff = 0 }
  in
  (* Server side: each shard produces its two sketches and ships them in
     checksummed frames. A shard may be disconnected or even empty — the
     samplers handle that (strength indices are per-component). The rng
     draw order (all coarse sketches, then all fine ones, then the
     contraction trials) matches the idealized pipeline exactly. *)
  let ship sparsify =
    Array.map
      (fun shard ->
        deliver_sketch lossy ~fault tally
          (if Ugraph.m shard = 0 then shard else sparsify shard))
      shards
  in
  let coarse =
    Trace.with_span "coord.coarse" @@ fun () ->
    ship (Dcs_sketch.Benczur_karger.sparsify rng ~eps:eps_coarse)
  in
  let fine =
    Trace.with_span "coord.fine" @@ fun () ->
    ship (Dcs_sketch.Foreach_sampler.sparsify rng ~eps:cfg.eps)
  in
  (* Coordinator side: merge the surviving coarse sparsifiers and enumerate
     near-minimum candidate cuts by repeated contraction. *)
  let surviving_coarse =
    Array.of_list (List.filter_map snd (Array.to_list coarse))
  in
  if Array.length surviving_coarse = 0 then
    failwith "Coordinator.min_cut_robust: every coarse sketch lost past the retry budget";
  let merged = Partition.union n surviving_coarse in
  let connected = Dcs_graph.Traversal.is_connected merged in
  if Fault.active fault && not connected then
    failwith
      "Coordinator.min_cut_robust: merged coarse sparsifier disconnected (shards lost past the retry budget)";
  let candidates =
    Trace.with_span "coord.candidates" @@ fun () ->
    if connected then
      Dcs_mincut.Karger.candidate_cuts rng ~trials:cfg.karger_trials
        ~factor:candidate_factor merged
    else
      (* Sampling dropped every coarse edge across some cut (a sub-unit
         bridge, say): each component of the merge is a cut of sketch
         value 0, and the fine sketches score them as usual. *)
      let comp = Dcs_graph.Traversal.connected_components merged in
      List.init
        (Array.fold_left max 0 comp + 1)
        (fun c -> (0.0, Cut.of_mem ~n (fun v -> comp.(v) = c)))
  in
  Metrics.observe m_candidates (List.length candidates);
  let coarse_estimate =
    match candidates with [] -> infinity | (v, _) :: _ -> v
  in
  (* Refine every candidate with the surviving for-each sketches: shard
     edges are disjoint, so a cut's estimate is the sum of the shards'
     estimates. Lost fine shards are compensated by rescaling with the
     advertised shard weights (the tiny control-plane message every server
     sends up front). With nothing lost the scale is exactly 1.0. *)
  let total_weight = Array.fold_left (fun acc s -> acc +. Ugraph.total_weight s) 0.0 shards in
  let surviving_weight =
    Array.fold_left
      (fun acc i ->
        match snd fine.(i) with
        | Some _ -> acc +. Ugraph.total_weight shards.(i)
        | None -> acc)
      0.0
      (Array.init (Array.length shards) (fun i -> i))
  in
  let scale =
    if surviving_weight > 0.0 then total_weight /. surviving_weight else 1.0
  in
  (* Freeze each surviving fine sketch once before the candidate loop: the
     refinement evaluates every candidate cut against every shard, so the
     per-shard hashtable scans would dominate. *)
  let fine_frozen =
    Array.map (fun (_, h) -> Option.map Dcs_graph.Csr.of_ugraph h) fine
  in
  let score cut =
    Array.fold_left
      (fun acc h ->
        match h with
        | Some h -> acc +. Dcs_graph.Csr.cut_value h cut
        | None -> acc)
      0.0 fine_frozen
    *. scale
  in
  let best =
    Trace.with_span "coord.refine" @@ fun () ->
    List.fold_left
      (fun acc (_, cut) ->
        let v = score cut in
        match acc with
        | Some (bv, _) when bv <= v -> acc
        | _ -> Some (v, cut))
      None candidates
  in
  let estimate, cut =
    match best with
    | Some (v, c) -> (v, c)
    | None -> invalid_arg "Coordinator.min_cut: no candidate cuts (empty graph?)"
  in
  let sum f arr = Array.fold_left (fun acc d -> acc + f d) 0 arr in
  let forall_bits = sum fst coarse and foreach_bits = sum fst fine in
  let naive_bits =
    Array.fold_left (fun acc s -> acc + Sketch.ugraph_encoding_bits s) 0 shards
  in
  let fullacc_forall_bits =
    Array.fold_left
      (fun acc shard ->
        if Ugraph.m shard = 0 then acc + Sketch.ugraph_encoding_bits shard
        else begin
          let h = Dcs_sketch.Benczur_karger.sparsify rng ~eps:cfg.eps shard in
          acc + Sketch.ugraph_encoding_bits h
        end)
      0 shards
  in
  let base =
    {
      estimate;
      coarse_estimate;
      cut;
      candidates = List.length candidates;
      forall_bits;
      foreach_bits;
      total_bits = forall_bits + foreach_bits;
      naive_bits;
      fullacc_forall_bits;
    }
  in
  let lost arr = sum (fun (_, h) -> if Option.is_none h then 1 else 0) arr in
  let coarse_lost = lost coarse and fine_lost = lost fine in
  let eps_effective =
    if coarse_lost > 0 then infinity
    else if fine_lost > 0 then Float.max 1.0 ((scale *. (1.0 +. cfg.eps)) -. 1.0)
    else cfg.eps
  in
  let report =
    {
      retransmissions = tally.retrans;
      drops_seen = tally.drops;
      corruptions_detected = tally.corrupt;
      stragglers = tally.stragglers;
      speculative_retransmissions = tally.spec;
      coarse_lost;
      fine_lost;
      checksum_bits = Sketch.checksum_bits * 2 * Array.length shards;
      retransmit_bits = Channel.retransmit_bits lossy;
      (* every server advertises its shard's total weight up front on the
         reliable control plane: one 64-bit float per shard *)
      control_bits = 64 * Array.length shards;
      backoff_units = tally.backoff;
      eps_effective;
      degraded = coarse_lost > 0 || fine_lost > 0;
    }
  in
  Metrics.inc ~by:report.retransmissions m_retrans;
  Metrics.inc ~by:report.drops_seen m_drops;
  Metrics.inc ~by:report.corruptions_detected m_corrupt;
  Metrics.inc ~by:report.stragglers m_stragglers;
  Metrics.inc ~by:report.speculative_retransmissions m_spec;
  Metrics.inc ~by:report.coarse_lost m_coarse_lost;
  Metrics.inc ~by:report.fine_lost m_fine_lost;
  Metrics.inc ~by:report.backoff_units m_backoff;
  { base; report }

let min_cut rng cfg shards =
  (min_cut_robust rng cfg ~fault:Fault.disabled shards).base
