open Dcs

let check_float = Alcotest.(check (float 1e-9))

let planted seed =
  let rng = Prng.create seed in
  Dcs_graph.Generators.planted_mincut rng ~block:40 ~k:5 ~p_inner:0.4

(* --- Partition --- *)

let test_partition_random_union_roundtrip () =
  let rng = Prng.create 1 in
  let g = planted 2 in
  let shards = Partition.random rng ~servers:4 g in
  Alcotest.(check int) "4 shards" 4 (Array.length shards);
  let merged = Partition.union (Ugraph.n g) shards in
  Alcotest.(check bool) "union restores graph" true (Ugraph.equal g merged)

let test_partition_hash_deterministic () =
  let g = planted 3 in
  let a = Partition.by_hash ~servers:3 g in
  let b = Partition.by_hash ~servers:3 g in
  Array.iteri
    (fun i shard -> Alcotest.(check bool) "same shard" true (Ugraph.equal shard b.(i)))
    a

let test_partition_edges_disjoint () =
  let rng = Prng.create 4 in
  let g = planted 5 in
  let shards = Partition.random rng ~servers:3 g in
  let total = Array.fold_left (fun acc s -> acc + Ugraph.m s) 0 shards in
  Alcotest.(check int) "edge counts add up" (Ugraph.m g) total;
  Ugraph.iter_edges g (fun u v _ ->
      let owners =
        Array.fold_left
          (fun acc s -> if Ugraph.mem_edge s u v then acc + 1 else acc)
          0 shards
      in
      Alcotest.(check int) "exactly one owner" 1 owners)

let test_partition_single_server () =
  let rng = Prng.create 6 in
  let g = planted 7 in
  let shards = Partition.random rng ~servers:1 g in
  Alcotest.(check bool) "identity" true (Ugraph.equal g shards.(0))

(* --- Coordinator --- *)

let test_coordinator_recovers_mincut () =
  let rng = Prng.create 8 in
  let g = planted 9 in
  let exact = Stoer_wagner.mincut_value g in
  let shards = Partition.random rng ~servers:4 g in
  let cfg = Coordinator.default_config ~eps:0.2 in
  let r = Coordinator.min_cut rng cfg shards in
  Alcotest.(check bool) "estimate close to exact" true
    (Float.abs (r.Coordinator.estimate -. exact) <= (0.3 *. exact) +. 1e-9);
  (* The returned witness cut should be near-minimum on the true graph. *)
  let true_val = Ugraph.cut_value g r.Coordinator.cut in
  Alcotest.(check bool) "witness near-minimum" true (true_val <= 1.5 *. exact)

let test_coordinator_bits_accounting () =
  let rng = Prng.create 10 in
  let g = planted 11 in
  let shards = Partition.random rng ~servers:2 g in
  let cfg = Coordinator.default_config ~eps:0.25 in
  let r = Coordinator.min_cut rng cfg shards in
  Alcotest.(check int) "total = forall + foreach"
    (r.Coordinator.forall_bits + r.Coordinator.foreach_bits)
    r.Coordinator.total_bits;
  Alcotest.(check bool) "positive" true (r.Coordinator.total_bits > 0);
  Alcotest.(check bool) "naive positive" true (r.Coordinator.naive_bits > 0)

let test_coordinator_candidates_nonempty () =
  let rng = Prng.create 12 in
  let g = planted 13 in
  let shards = Partition.random rng ~servers:3 g in
  let cfg = { (Coordinator.default_config ~eps:0.3) with Coordinator.karger_trials = 80 } in
  let r = Coordinator.min_cut rng cfg shards in
  Alcotest.(check bool) "at least one candidate" true (r.Coordinator.candidates >= 1)

let test_coordinator_single_shard_matches () =
  (* One server holding everything: the pipeline reduces to sparsify+karger. *)
  let rng = Prng.create 14 in
  let g = planted 15 in
  let exact = Stoer_wagner.mincut_value g in
  let cfg = Coordinator.default_config ~eps:0.2 in
  let r = Coordinator.min_cut rng cfg [| g |] in
  Alcotest.(check bool) "close" true
    (Float.abs (r.Coordinator.estimate -. exact) <= (0.3 *. exact) +. 1e-9)

let test_coordinator_empty_shard_tolerated () =
  let rng = Prng.create 16 in
  let g = planted 17 in
  let shards = [| g; Ugraph.create (Ugraph.n g) |] in
  let cfg = Coordinator.default_config ~eps:0.25 in
  let r = Coordinator.min_cut rng cfg shards in
  Alcotest.(check bool) "still works" true (r.Coordinator.estimate > 0.0)

let test_coordinator_weighted_graph () =
  let rng = Prng.create 18 in
  let base = Dcs_graph.Generators.complete ~n:30 in
  let g = Dcs_graph.Generators.random_multigraph_weights rng base ~max_weight:10 in
  let exact = Stoer_wagner.mincut_value g in
  let shards = Partition.random rng ~servers:3 g in
  let cfg = Coordinator.default_config ~eps:0.2 in
  let r = Coordinator.min_cut rng cfg shards in
  Alcotest.(check bool) "weighted close" true
    (Float.abs (r.Coordinator.estimate -. exact) <= (0.35 *. exact) +. 1e-9)

(* --- Config validation --- *)

let test_coordinator_validate () =
  let cfg = Coordinator.default_config ~eps:0.3 in
  Coordinator.validate cfg;
  let raises msg bad =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        Coordinator.validate bad)
  in
  raises "Coordinator: eps must be in (0, 1)" { cfg with Coordinator.eps = 0.0 };
  raises "Coordinator: eps must be in (0, 1)" { cfg with Coordinator.eps = 1.0 };
  raises "Coordinator: karger_trials must be >= 1"
    { cfg with Coordinator.karger_trials = 0 };
  (* Both entry points validate before doing any work. *)
  let g = planted 30 in
  let shards = Partition.random (Prng.create 31) ~servers:2 g in
  Alcotest.check_raises "min_cut validates"
    (Invalid_argument "Coordinator: karger_trials must be >= 1") (fun () ->
      ignore
        (Coordinator.min_cut (Prng.create 32)
           { cfg with Coordinator.karger_trials = -3 }
           shards))

(* --- Fault-tolerant pipeline --- *)

let test_robust_disabled_matches_min_cut () =
  (* Same seed, fault injection disabled: the robust pipeline must be
     bit-identical to the idealized one — estimates AND metered bits. *)
  let g = planted 33 in
  let shards = Partition.random (Prng.create 34) ~servers:3 g in
  let cfg = Coordinator.default_config ~eps:0.3 in
  let plain = Coordinator.min_cut (Prng.create 35) cfg shards in
  let robust = Coordinator.min_cut_robust (Prng.create 35) cfg ~fault:Fault.disabled shards in
  Alcotest.(check bool) "base result identical" true (plain = robust.Coordinator.base);
  let rep = robust.Coordinator.report in
  Alcotest.(check int) "no retransmissions" 0 rep.Coordinator.retransmissions;
  Alcotest.(check int) "no retransmit bits" 0 rep.Coordinator.retransmit_bits;
  Alcotest.(check bool) "not degraded" false rep.Coordinator.degraded;
  Alcotest.(check (float 1e-9)) "eps unchanged" cfg.Coordinator.eps
    rep.Coordinator.eps_effective

let test_robust_recovers_under_drops () =
  (* Moderate loss: retransmission should recover every sketch and the
     estimate should stay close — robustness pays bits, not accuracy. *)
  let g = planted 36 in
  let exact = Stoer_wagner.mincut_value g in
  let rng = Prng.create 37 in
  let shards = Partition.random rng ~servers:3 g in
  let cfg = Coordinator.default_config ~eps:0.3 in
  let fault = Fault.create (Fault.policy ~drop:0.2 ~corrupt:0.1 ()) rng in
  let r = Coordinator.min_cut_robust rng cfg ~fault shards in
  let rep = r.Coordinator.report in
  Alcotest.(check bool) "faults were injected" true
    (rep.Coordinator.drops_seen + rep.Coordinator.corruptions_detected > 0);
  Alcotest.(check bool) "recovered by retransmission" true
    (rep.Coordinator.retransmissions > 0);
  Alcotest.(check int) "nothing lost" 0
    (rep.Coordinator.coarse_lost + rep.Coordinator.fine_lost);
  Alcotest.(check bool) "retransmit bits metered" true
    (rep.Coordinator.retransmit_bits > 0);
  Alcotest.(check bool) "estimate still close" true
    (Float.abs (r.Coordinator.base.Coordinator.estimate -. exact)
     <= (0.5 *. exact) +. 1e-9)

let test_robust_degrades_past_budget () =
  (* Loss heavy enough to outlast the 4 re-requests: some sketches are
     abandoned and the coordinator degrades instead of failing, widening
     its error bound to one the estimate meets. *)
  let g = planted 38 in
  let exact = Stoer_wagner.mincut_value g in
  let rng = Prng.create 39 in
  let shards = Partition.random rng ~servers:4 g in
  let cfg = Coordinator.default_config ~eps:0.3 in
  let fault = Fault.create (Fault.policy ~drop:0.85 ()) rng in
  let r = Coordinator.min_cut_robust rng cfg ~fault shards in
  let rep = r.Coordinator.report in
  Alcotest.(check bool) "sketches lost" true
    (rep.Coordinator.coarse_lost + rep.Coordinator.fine_lost > 0);
  Alcotest.(check bool) "degraded flagged" true rep.Coordinator.degraded;
  Alcotest.(check bool) "retries within the budget" true
    (rep.Coordinator.retransmissions <= 4 * 2 * Array.length shards);
  if rep.Coordinator.fine_lost > 0 then
    Alcotest.(check bool) "error bound widened" true
      (rep.Coordinator.eps_effective > cfg.Coordinator.eps);
  Alcotest.(check bool) "estimate within eps_effective" true
    (Float.abs (r.Coordinator.base.Coordinator.estimate -. exact)
     <= rep.Coordinator.eps_effective *. exact)

(* eps_effective must bound the error of every degraded run that returns:
   150 seeds of the loss above, each driving the partition, the injector
   and the pipeline from one stream. A lost coarse sketch can drop the
   minimum cut from the candidates and a lost fine shard can hold the
   whole cut, so a degraded estimate can land far above the minimum cut
   or at 0. *)
let test_robust_eps_effective_bounds_error () =
  let g = planted 38 in
  let exact = Stoer_wagner.mincut_value g in
  let cfg = Coordinator.default_config ~eps:0.3 in
  let misses = ref [] in
  for s = 1000 to 1149 do
    let rng = Prng.create s in
    let shards = Partition.random rng ~servers:4 g in
    let fault = Fault.create (Fault.policy ~drop:0.85 ()) rng in
    match Coordinator.min_cut_robust rng cfg ~fault shards with
    | r ->
        let est = r.Coordinator.base.Coordinator.estimate in
        if
          not
            (Float.abs (est -. exact)
             <= (r.Coordinator.report.Coordinator.eps_effective *. exact) +. 1e-9)
        then misses := s :: !misses
    | exception Failure _ -> ()
  done;
  Alcotest.(check (list int)) "seeds outside eps_effective" [] (List.rev !misses)

let test_robust_stragglers_never_lose_data () =
  (* Timeout-only faults: every straggling sketch triggers a speculative
     re-request but its late copy is kept as a fallback, so nothing is
     lost, nothing degrades, and the estimate is bit-identical to a clean
     run with the same pipeline stream. *)
  let g = planted 40 in
  let shards = Partition.random (Prng.create 41) ~servers:3 g in
  let cfg = Coordinator.default_config ~eps:0.3 in
  let run fault = Coordinator.min_cut_robust (Prng.create 42) cfg ~fault shards in
  let clean = run (Fault.create Fault.no_faults (Prng.create 43)) in
  let r = run (Fault.create (Fault.policy ~timeout:0.5 ()) (Prng.create 43)) in
  let rep = r.Coordinator.report in
  Alcotest.(check bool) "stragglers observed" true (rep.Coordinator.stragglers > 0);
  Alcotest.(check bool) "speculative re-requests fired" true
    (rep.Coordinator.speculative_retransmissions > 0);
  Alcotest.(check bool) "speculation pays retransmit bits" true
    (rep.Coordinator.retransmit_bits > 0);
  Alcotest.(check int) "nothing lost" 0
    (rep.Coordinator.coarse_lost + rep.Coordinator.fine_lost);
  Alcotest.(check bool) "not degraded" false rep.Coordinator.degraded;
  Alcotest.(check bool) "base result bit-identical to clean run" true
    (r.Coordinator.base = clean.Coordinator.base)

let test_robust_all_stragglers_fall_back_to_late_copy () =
  (* timeout = 1: every delivery of every attempt overruns the deadline,
     so the retry budget runs dry and the coordinator falls back to the
     late copies — the pipeline still completes, undegraded. *)
  let g = planted 44 in
  let shards = Partition.random (Prng.create 45) ~servers:3 g in
  let cfg = Coordinator.default_config ~eps:0.3 in
  let run fault = Coordinator.min_cut_robust (Prng.create 46) cfg ~fault shards in
  let clean = run (Fault.create Fault.no_faults (Prng.create 47)) in
  let r = run (Fault.create (Fault.policy ~timeout:1.0 ()) (Prng.create 47)) in
  let rep = r.Coordinator.report in
  (* 3 coarse + 3 fine sketches, each straggling on all (budget+1 = 5)
     attempts; the speculative re-requests stop at the budget. *)
  Alcotest.(check int) "every attempt straggled" 30 rep.Coordinator.stragglers;
  Alcotest.(check int) "speculation bounded by budget" 24
    rep.Coordinator.speculative_retransmissions;
  Alcotest.(check int) "late copies save every sketch" 0
    (rep.Coordinator.coarse_lost + rep.Coordinator.fine_lost);
  Alcotest.(check bool) "not degraded" false rep.Coordinator.degraded;
  Alcotest.(check bool) "estimate unchanged" true
    (r.Coordinator.base = clean.Coordinator.base)

let test_robust_keeps_intact_late_copy () =
  (* Seeded so that two fine-sketch deliveries each receive an intact
     straggler copy, then a corrupted one, and give up. The fallback is
     the newest copy that parses, so neither sketch is lost; keeping only
     the newest copy lost both (report lost=0/2, corruptions 5, estimate
     3.078 against a minimum cut of 5). *)
  let g = planted 9 in
  let shards = Partition.random (Prng.create 2) ~servers:3 g in
  let cfg = { (Coordinator.default_config ~eps:0.3) with Coordinator.karger_trials = 40 } in
  let policy = Fault.policy ~drop:0.3 ~corrupt:0.4 ~timeout:0.4 () in
  let fault = Fault.create policy (Prng.create 31) in
  let r = Coordinator.min_cut_robust (Prng.create 1) cfg ~fault shards in
  let rep = r.Coordinator.report in
  Alcotest.(check (pair int int)) "no sketch lost" (0, 0)
    (rep.Coordinator.coarse_lost, rep.Coordinator.fine_lost);
  Alcotest.(check int) "corruptions" 3 rep.Coordinator.corruptions_detected;
  Alcotest.(check int) "stragglers" 5 rep.Coordinator.stragglers;
  check_float "estimate is the minimum cut" (Stoer_wagner.mincut_value g)
    r.Coordinator.base.Coordinator.estimate

let test_robust_drop_only_reports_no_stragglers () =
  (* Drop faults must not leak into the straggler counters: the two
     recovery paths are metered separately. *)
  let g = planted 48 in
  let shards = Partition.random (Prng.create 49) ~servers:3 g in
  let cfg = Coordinator.default_config ~eps:0.3 in
  let fault = Fault.create (Fault.policy ~drop:0.3 ()) (Prng.create 50) in
  let r = Coordinator.min_cut_robust (Prng.create 51) cfg ~fault shards in
  let rep = r.Coordinator.report in
  Alcotest.(check bool) "drops actually recovered" true
    (rep.Coordinator.retransmissions > 0);
  Alcotest.(check int) "no stragglers counted" 0 rep.Coordinator.stragglers;
  Alcotest.(check int) "no speculative re-requests" 0
    rep.Coordinator.speculative_retransmissions

(* qcheck: the refined estimate never undercuts the true minimum cut by
   more than the sketch error (the candidate is a real cut, whose true
   value is >= mincut; the for-each estimate is within ~eps of it). *)
let prop_estimate_lower_bounded =
  QCheck.Test.make ~name:"distributed estimate >= (1-2eps)·mincut" ~count:8
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = planted (seed + 1000) in
      let exact = Stoer_wagner.mincut_value g in
      let shards = Partition.random rng ~servers:3 g in
      let cfg = Coordinator.default_config ~eps:0.2 in
      let r = Coordinator.min_cut rng cfg shards in
      r.Coordinator.estimate >= (1.0 -. 0.4) *. exact)

let suite =
  [
    Alcotest.test_case "partition: random roundtrip" `Quick test_partition_random_union_roundtrip;
    Alcotest.test_case "partition: hash deterministic" `Quick test_partition_hash_deterministic;
    Alcotest.test_case "partition: edges disjoint" `Quick test_partition_edges_disjoint;
    Alcotest.test_case "partition: single server" `Quick test_partition_single_server;
    Alcotest.test_case "coordinator: recovers mincut" `Quick test_coordinator_recovers_mincut;
    Alcotest.test_case "coordinator: bits accounting" `Quick test_coordinator_bits_accounting;
    Alcotest.test_case "coordinator: candidates" `Quick test_coordinator_candidates_nonempty;
    Alcotest.test_case "coordinator: single shard" `Quick test_coordinator_single_shard_matches;
    Alcotest.test_case "coordinator: empty shard" `Quick test_coordinator_empty_shard_tolerated;
    Alcotest.test_case "coordinator: weighted" `Quick test_coordinator_weighted_graph;
    Alcotest.test_case "coordinator: validates config" `Quick test_coordinator_validate;
    Alcotest.test_case "robust: disabled = min_cut" `Quick test_robust_disabled_matches_min_cut;
    Alcotest.test_case "robust: recovers under drops" `Quick test_robust_recovers_under_drops;
    Alcotest.test_case "robust: degrades past budget" `Quick test_robust_degrades_past_budget;
    Alcotest.test_case "robust: eps_effective bounds the error" `Quick
      test_robust_eps_effective_bounds_error;
    Alcotest.test_case "robust: stragglers never lose data" `Quick test_robust_stragglers_never_lose_data;
    Alcotest.test_case "robust: all-straggler late-copy fallback" `Quick test_robust_all_stragglers_fall_back_to_late_copy;
    Alcotest.test_case "robust: drop-only leaves straggler meters zero" `Quick test_robust_drop_only_reports_no_stragglers;
    Alcotest.test_case "robust: an intact late copy outlives a corrupted one" `Quick test_robust_keeps_intact_late_copy;
    QCheck_alcotest.to_alcotest prop_estimate_lower_bounded;
  ]
