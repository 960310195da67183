(* E18 — Profiling pass: the Theorem 1.1 and 1.3 pipelines re-run under
   full instrumentation.

   Two things are checked, one is merely shown:

   (a) The observability registry (Dcs.Obs.Metrics) must agree EXACTLY with
   the repo's bespoke meters. Every trial uses fresh channels/oracles, so a
   registry delta over the run equals the sum of the per-instance meters:
   channel.bits vs Channel.total_bits, oracle.* vs Oracle.total_queries,
   sketch.size_bits vs the sketches' own size accounting, and the decode
   query arithmetic (4 cut queries per decoded bit). A mismatch fails the
   experiment — these identities are what make the registry trustworthy.

   (b) The metrics snapshot is counts-only, so it is byte-identical across
   DCS_DOMAINS (bin/check_determinism.sh diffs the DCS_METRICS JSON of this
   experiment at 1/2/4 domains).

   (c) The hot-path table: top spans by self time. Wall clock — for humans
   only, never diffed. *)

open Dcs
module F = Foreach_lb

(* Theorem 1.1 pipeline: encode a random instance, frame + ship the exact
   sketch over a fresh channel, decode random bits through the shipped
   sketch. *)
let part_a rng t =
  let p_bits = Common.probe "channel.bits" in
  let p_msgs = Common.probe "channel.messages" in
  let p_decoded = Common.probe "foreach_lb.bits_decoded" in
  let p_queries = Common.probe "foreach_lb.cut_queries" in
  let p_built = Common.probe "sketch.built" in
  let p_size = Common.probe "sketch.size_bits" in
  let p = F.make_params ~beta:4 ~inv_eps:8 64 in
  let trials = 4 and bits_per_trial = 40 in
  let master = Prng.fork rng in
  let sent_bits = ref 0 and sketch_bits = ref 0 and correct = ref 0 in
  for trial = 0 to trials - 1 do
    let rng = Prng.split master trial in
    let inst = F.random_instance rng p in
    let sk = Exact_sketch.create inst.F.graph in
    let ch = Channel.create () in
    Channel.send ch ~bits:(sk.Sketch.size_bits + Sketch.checksum_bits);
    sent_bits := !sent_bits + Channel.total_bits ch;
    sketch_bits := !sketch_bits + sk.Sketch.size_bits;
    for _ = 1 to bits_per_trial do
      let q = Prng.int rng (F.bits_capacity p) in
      let r = F.decode_bit p ~query:sk.Sketch.query q in
      if r.F.decoded = inst.F.s.(q) then incr correct
    done
  done;
  let decoded = trials * bits_per_trial in
  Common.check t [ "1.1"; "channel.bits = sum Channel.total_bits" ]
    ~expected:!sent_bits ~registry:(Common.delta p_bits);
  Common.check t [ "1.1"; "channel.messages = frames shipped" ]
    ~expected:trials ~registry:(Common.delta p_msgs);
  Common.check t [ "1.1"; "sketch.built = sketches constructed" ]
    ~expected:trials ~registry:(Common.delta p_built);
  Common.check t [ "1.1"; "sketch.size_bits = sum size_bits" ]
    ~expected:!sketch_bits ~registry:(Common.delta p_size);
  Common.check t [ "1.1"; "foreach_lb.bits_decoded = decode calls" ]
    ~expected:decoded ~registry:(Common.delta p_decoded);
  Common.check t [ "1.1"; "foreach_lb.cut_queries = 4 x decoded" ]
    ~expected:(4 * decoded) ~registry:(Common.delta p_queries);
  (!correct, decoded)

(* Theorem 1.3 pipeline: local-query estimation on G_{x,y}, each trial with
   a fresh metered oracle, its Lemma 5.6 communication shipped over a fresh
   channel. *)
let part_b rng t =
  let p_deg = Common.probe "oracle.degree_queries" in
  let p_edge = Common.probe "oracle.edge_queries" in
  let p_adj = Common.probe "oracle.adjacency_queries" in
  let p_bits = Common.probe "channel.bits" in
  let p_runs = Common.probe "estimator.runs" in
  let l = 48 in
  let build ~alpha =
    let n_bits = l * l in
    let blocks = 16 in
    let inst =
      Two_sum.generate rng ~t:blocks ~len:(n_bits / blocks) ~alpha
        ~frac_intersecting:0.25
    in
    let x, y = Two_sum.concat_pair inst in
    let int_xy = Bitstring.intersection_size x y in
    assert (l >= 3 * int_xy);
    (Gxy.build ~x ~y, int_xy)
  in
  let alphas = [ 2; 3; 4 ] in
  let queries = ref 0 and comm = ref 0 and ok_count = ref 0 in
  List.iter
    (fun alpha ->
      let g, int_xy = build ~alpha in
      let k = 2 * int_xy in
      let eps = 0.7 in
      let o = Oracle.create ~memoize:true g in
      let r = Estimator.estimate ~c0:1.0 rng o ~eps ~mode:Estimator.Modified in
      queries := !queries + r.Estimator.total_queries;
      let ch = Channel.create () in
      Channel.send ch ~bits:r.Estimator.comm_bits;
      comm := !comm + Channel.total_bits ch;
      if
        Float.abs (r.Estimator.estimate -. float_of_int k)
        <= (eps *. float_of_int k) +. 1e-9
      then incr ok_count)
    alphas;
  let oracle_delta =
    Common.delta p_deg + Common.delta p_edge + Common.delta p_adj
  in
  Common.check t [ "1.3"; "oracle.* = sum Oracle.total_queries" ]
    ~expected:!queries ~registry:oracle_delta;
  Common.check t [ "1.3"; "channel.bits = sum Estimator comm_bits" ]
    ~expected:!comm ~registry:(Common.delta p_bits);
  Common.check t [ "1.3"; "estimator.runs = estimate calls" ]
    ~expected:(List.length alphas) ~registry:(Common.delta p_runs);
  (!ok_count, List.length alphas)

let run () =
  Common.section "E18 Profiling: instrumented 1.1/1.3 pipelines";
  let was_tracing = Obs.Trace.enabled () in
  Obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_tracing then Obs.Trace.disable ())
    (fun () ->
      let rng = Common.rng_for 18 in
      let t =
        Common.checks [ "thm"; "invariant" ]
          "registry vs bespoke meters (must agree exactly)"
      in
      let a_ok, a_total = part_a rng t in
      Table.add_rule t.Common.table;
      let b_ok, b_total = part_b rng t in
      Common.print_checks t
        ~failure:"E18: observability registry disagrees with bespoke meters";
      Common.note "Thm 1.1 decode: %s correct; Thm 1.3 estimates: %d/%d in bound"
        (Common.rate_cell ~ok:a_ok ~total:a_total)
        b_ok b_total;
      print_newline ();
      (* Wall clock below this line: stdout of E18 is excluded from the
         byte-diff determinism gate; only its DCS_METRICS snapshot is. *)
      Table.print (Obs.Report.span_table ()))
