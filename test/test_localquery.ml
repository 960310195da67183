open Dcs

let check_float = Alcotest.(check (float 1e-9))

(* --- Oracle --- *)

let triangle () = Ugraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.0) ]

let test_oracle_degree () =
  let o = Oracle.create (triangle ()) in
  Alcotest.(check int) "degree" 2 (Oracle.degree o 0);
  Alcotest.(check int) "metered" 1 (Oracle.stats o).Oracle.degree_queries

let test_oracle_ith_neighbor () =
  let o = Oracle.create (triangle ()) in
  Alcotest.(check (option int)) "first neighbor" (Some 1) (Oracle.ith_neighbor o 0 0);
  Alcotest.(check (option int)) "second neighbor" (Some 2) (Oracle.ith_neighbor o 0 1);
  Alcotest.(check (option int)) "out of range" None (Oracle.ith_neighbor o 0 2);
  Alcotest.(check int) "3 edge queries" 3 (Oracle.stats o).Oracle.edge_queries

let test_oracle_adjacent () =
  let o = Oracle.create (triangle ()) in
  Alcotest.(check bool) "adjacent" true (Oracle.adjacent o 0 1);
  Alcotest.(check bool) "self" false (Oracle.adjacent o 0 0);
  Alcotest.(check int) "2 adjacency queries" 2 (Oracle.stats o).Oracle.adjacency_queries

let test_oracle_comm_bits () =
  let o = Oracle.create (triangle ()) in
  ignore (Oracle.degree o 0);
  ignore (Oracle.ith_neighbor o 0 0);
  ignore (Oracle.adjacent o 1 2);
  (* degree free, edge + adjacency cost 2 bits each (Lemma 5.6) *)
  Alcotest.(check int) "comm bits" 4 (Oracle.comm_bits o);
  Alcotest.(check int) "total queries" 3 (Oracle.total_queries o)

let test_oracle_reset () =
  let o = Oracle.create (triangle ()) in
  ignore (Oracle.degree o 0);
  Oracle.reset o;
  Alcotest.(check int) "reset" 0 (Oracle.total_queries o)

let test_oracle_memoization () =
  let o = Oracle.create ~memoize:true (triangle ()) in
  ignore (Oracle.ith_neighbor o 0 0);
  ignore (Oracle.ith_neighbor o 0 0);
  ignore (Oracle.ith_neighbor o 0 1);
  Alcotest.(check int) "repeat free" 2 (Oracle.stats o).Oracle.edge_queries;
  ignore (Oracle.adjacent o 0 1);
  ignore (Oracle.adjacent o 1 0);
  Alcotest.(check int) "symmetric pair memoized" 1 (Oracle.stats o).Oracle.adjacency_queries

let test_oracle_no_memoization_pays () =
  let o = Oracle.create (triangle ()) in
  ignore (Oracle.ith_neighbor o 0 0);
  ignore (Oracle.ith_neighbor o 0 0);
  Alcotest.(check int) "pays twice" 2 (Oracle.stats o).Oracle.edge_queries

(* --- Gxy (Figure 2 / Lemma 5.5) --- *)

let figure2_strings () =
  (* x = 000000100, y = 100010100 (paper's Figure 2). *)
  let of_string s =
    Array.init (String.length s) (fun i -> s.[i] = '1')
  in
  (of_string "000000100", of_string "100010100")

let test_gxy_figure2 () =
  let x, y = figure2_strings () in
  let g = Gxy.build ~x ~y in
  Alcotest.(check int) "n = 4l" 12 (Ugraph.n g);
  Alcotest.(check int) "m = 2N" 18 (Ugraph.m g);
  Alcotest.(check int) "INT" 1 (Bitstring.intersection_size x y);
  (* intersection at index 6 = (i=2, j=0): edges (a_2, b'_0), (b_2, a'_0) *)
  Alcotest.(check bool) "red edge 1" true
    (Ugraph.mem_edge g (Gxy.vertex ~side:3 Gxy.A 2) (Gxy.vertex ~side:3 Gxy.B' 0));
  Alcotest.(check bool) "red edge 2" true
    (Ugraph.mem_edge g (Gxy.vertex ~side:3 Gxy.B 2) (Gxy.vertex ~side:3 Gxy.A' 0));
  let mc, _ = Stoer_wagner.mincut g in
  check_float "mincut = 2 INT" 2.0 mc

let test_gxy_regular () =
  let rng = Prng.create 1 in
  let x = Bitstring.random rng 49 and y = Bitstring.random rng 49 in
  let g = Gxy.build ~x ~y in
  for v = 0 to (4 * 7) - 1 do
    Alcotest.(check int) "degree = sqrt N" 7 (Ugraph.degree g v)
  done

let test_gxy_classify_vertex_roundtrip () =
  let side = 5 in
  for v = 0 to (4 * side) - 1 do
    let cls, idx = Gxy.classify ~side v in
    Alcotest.(check int) "roundtrip" v (Gxy.vertex ~side cls idx)
  done

let test_gxy_witness_cut () =
  let rng = Prng.create 2 in
  let inst = Two_sum.generate rng ~t:8 ~len:32 ~alpha:2 ~frac_intersecting:0.2 in
  let x, y = Two_sum.concat_pair inst in
  let g = Gxy.build ~x ~y in
  let l = Gxy.side ~n:(Bitstring.length x) in
  let w = Ugraph.cut_value g (Gxy.witness_cut ~side:l) in
  check_float "witness = 2 INT" (float_of_int (2 * Bitstring.intersection_size x y)) w

let test_gxy_lemma55_random () =
  let rng = Prng.create 3 in
  for _ = 1 to 8 do
    let inst = Two_sum.generate rng ~t:16 ~len:16 ~alpha:1 ~frac_intersecting:0.15 in
    let x, y = Two_sum.concat_pair inst in
    match Gxy.predicted_mincut ~x ~y with
    | Some predicted ->
        let g = Gxy.build ~x ~y in
        let mc, _ = Stoer_wagner.mincut g in
        check_float "Lemma 5.5" (float_of_int predicted) mc
    | None -> ()
  done

let test_gxy_edge_disjoint_paths_cases () =
  (* The four case classes of Figures 3-6: every vertex pair admits at
     least 2γ edge-disjoint paths. *)
  let rng = Prng.create 4 in
  let inst = Two_sum.generate rng ~t:16 ~len:16 ~alpha:1 ~frac_intersecting:0.1 in
  let x, y = Two_sum.concat_pair inst in
  let g = Gxy.build ~x ~y in
  let gamma = Bitstring.intersection_size x y in
  let l = Gxy.side ~n:(Bitstring.length x) in
  if l >= 3 * gamma && gamma >= 1 then begin
    let pairs =
      [
        (Gxy.vertex ~side:l Gxy.A 0, Gxy.vertex ~side:l Gxy.A 1);   (* case 1 *)
        (Gxy.vertex ~side:l Gxy.A 0, Gxy.vertex ~side:l Gxy.A' 1);  (* case 2 *)
        (Gxy.vertex ~side:l Gxy.A 0, Gxy.vertex ~side:l Gxy.B' 2);  (* case 3 *)
        (Gxy.vertex ~side:l Gxy.A 0, Gxy.vertex ~side:l Gxy.B 3);   (* case 4 *)
      ]
    in
    List.iter
      (fun (u, v) ->
        Alcotest.(check bool) "2γ-connected pair" true
          (Dinic.edge_disjoint_paths g ~s:u ~t:v >= 2 * gamma))
      pairs
  end

let test_gxy_rejects_non_square () =
  let x = Bitstring.zeros 10 and y = Bitstring.zeros 10 in
  Alcotest.check_raises "not square"
    (Invalid_argument "Gxy: length must be a perfect square") (fun () ->
      ignore (Gxy.build ~x ~y))

(* --- Verify-guess --- *)

let planted seed =
  let rng = Prng.create seed in
  Dcs_graph.Generators.planted_mincut rng ~block:40 ~k:6 ~p_inner:0.5

let test_verify_guess_accepts_small_t () =
  let rng = Prng.create 5 in
  let g = planted 6 in
  let o = Oracle.create g in
  let degrees = Array.init (Ugraph.n g) (fun u -> Ugraph.degree g u) in
  let out = Verify_guess.run rng o ~degrees ~t:4.0 ~eps:0.5 in
  Alcotest.(check bool) "accepts t <= k" true out.Verify_guess.accepted;
  Alcotest.(check bool) "estimate near k" true
    (Float.abs (out.Verify_guess.estimate -. 6.0) <= 3.0)

let test_verify_guess_rejects_huge_t () =
  let rng = Prng.create 6 in
  let g = planted 7 in
  let o = Oracle.create g in
  let degrees = Array.init (Ugraph.n g) (fun u -> Ugraph.degree g u) in
  let out = Verify_guess.run rng o ~degrees ~t:5000.0 ~eps:0.5 in
  Alcotest.(check bool) "rejects t >> k" false out.Verify_guess.accepted

let test_verify_guess_query_scaling () =
  let rng = Prng.create 7 in
  let g = planted 8 in
  let o = Oracle.create g in
  let degrees = Array.init (Ugraph.n g) (fun u -> Ugraph.degree g u) in
  let q_small = (Verify_guess.run rng o ~degrees ~t:50.0 ~eps:1.0).Verify_guess.edge_queries in
  let q_large = (Verify_guess.run rng o ~degrees ~t:400.0 ~eps:1.0).Verify_guess.edge_queries in
  Alcotest.(check bool) "queries decrease with t" true (q_large < q_small)

let test_verify_guess_full_read_exact () =
  let rng = Prng.create 8 in
  let g = planted 9 in
  let o = Oracle.create g in
  let degrees = Array.init (Ugraph.n g) (fun u -> Ugraph.degree g u) in
  (* t = 1 forces p = 1: exact result. *)
  let out = Verify_guess.run rng o ~degrees ~t:1.0 ~eps:1.0 in
  check_float "p = 1" 1.0 out.Verify_guess.p;
  check_float "exact min cut" (Stoer_wagner.mincut_value g) out.Verify_guess.estimate

(* --- Estimator --- *)

let test_estimator_accuracy_modified () =
  let rng = Prng.create 9 in
  let g = planted 10 in
  let k = Stoer_wagner.mincut_value g in
  let o = Oracle.create ~memoize:true g in
  let r = Estimator.estimate rng o ~eps:0.5 ~mode:Estimator.Modified in
  Alcotest.(check bool) "within 50%" true
    (Float.abs (r.Estimator.estimate -. k) <= (0.5 *. k) +. 1e-9)

let test_estimator_accuracy_original () =
  let rng = Prng.create 10 in
  let g = planted 11 in
  let k = Stoer_wagner.mincut_value g in
  let o = Oracle.create ~memoize:true g in
  let r = Estimator.estimate rng o ~eps:0.5 ~mode:Estimator.Original in
  Alcotest.(check bool) "within 50%" true
    (Float.abs (r.Estimator.estimate -. k) <= (0.5 *. k) +. 1e-9)

let test_estimator_counts_degree_queries () =
  let rng = Prng.create 11 in
  let g = planted 12 in
  let o = Oracle.create ~memoize:true g in
  let r = Estimator.estimate rng o ~eps:1.0 ~mode:Estimator.Modified in
  Alcotest.(check int) "n degree queries" (Ugraph.n g) r.Estimator.degree_queries

let test_estimator_query_cap () =
  (* With memoization the total can never exceed degrees + all slots + ... *)
  let rng = Prng.create 12 in
  let g = planted 13 in
  let o = Oracle.create ~memoize:true g in
  let r = Estimator.estimate rng o ~eps:0.25 ~mode:Estimator.Original in
  let cap = Ugraph.n g + (2 * Ugraph.m g) in
  Alcotest.(check bool) "min{m, ...} ceiling" true (r.Estimator.total_queries <= cap)

let test_estimator_search_calls_logarithmic () =
  let rng = Prng.create 13 in
  let g = planted 14 in
  let o = Oracle.create ~memoize:true g in
  let r = Estimator.estimate rng o ~eps:1.0 ~mode:Estimator.Modified in
  (* min degree ~ 20; halving to ~k=6 takes <= ~6 calls *)
  Alcotest.(check bool) "few search calls" true (r.Estimator.search_calls <= 10)

let test_estimator_comm_bits_match () =
  let rng = Prng.create 14 in
  let g = planted 15 in
  let o = Oracle.create ~memoize:true g in
  let r = Estimator.estimate rng o ~eps:1.0 ~mode:Estimator.Modified in
  Alcotest.(check int) "2 bits per edge query" (2 * r.Estimator.edge_queries)
    r.Estimator.comm_bits

let test_verify_guess_middle_zone_sane () =
  (* k < t < κ·k: Lemma 5.8 promises nothing, but the implementation must
     still return a finite, nonnegative estimate and a coherent decision. *)
  let rng = Prng.create 18 in
  let g = planted 19 in
  let o = Oracle.create g in
  let degrees = Array.init (Ugraph.n g) (fun u -> Ugraph.degree g u) in
  List.iter
    (fun t ->
      let out = Verify_guess.run rng o ~degrees ~t ~eps:0.5 in
      Alcotest.(check bool) "finite estimate" true
        (Float.is_finite out.Verify_guess.estimate && out.Verify_guess.estimate >= 0.0);
      Alcotest.(check bool) "p in (0,1]" true
        (out.Verify_guess.p > 0.0 && out.Verify_guess.p <= 1.0))
    [ 10.0; 20.0; 40.0; 80.0 ]

(* --- the Lemma 5.6 reduction --- *)

let test_reduction_solves_two_sum () =
  let rng = Prng.create 15 in
  let inst = Two_sum.generate rng ~t:16 ~len:64 ~alpha:2 ~frac_intersecting:0.25 in
  let r = Reduction.solve_two_sum ~c0:1.0 rng inst ~eps:0.5 in
  (* additive error r·eps <= t·eps = 8 in the worst case; typically far less *)
  Alcotest.(check bool) "close to Σ DISJ" true (r.Reduction.additive_error <= 4.0);
  Alcotest.(check bool) "metered" true (r.Reduction.comm_bits > 0)

let test_reduction_rejects_bad_instances () =
  let rng = Prng.create 16 in
  (* massive intersection count violates √N >= 3·INT *)
  let inst = Two_sum.generate rng ~t:16 ~len:16 ~alpha:8 ~frac_intersecting:1.0 in
  Alcotest.check_raises "hypothesis checked"
    (Invalid_argument "Reduction.solve_two_sum: Lemma 5.5 hypothesis violated")
    (fun () -> ignore (Reduction.solve_two_sum rng inst ~eps:0.5))

let test_reduction_exact_at_full_read () =
  (* eps small enough forces a full read: the min cut is exact and the
     2-SUM answer is exactly Σ DISJ. *)
  let rng = Prng.create 17 in
  let inst = Two_sum.generate rng ~t:16 ~len:16 ~alpha:1 ~frac_intersecting:0.2 in
  let r = Reduction.solve_two_sum ~c0:50.0 rng inst ~eps:0.5 in
  Alcotest.(check (float 1e-9)) "exact" 0.0 r.Reduction.additive_error

(* qcheck: Lemma 5.5 on random promise instances. *)
(* --- Faulty oracle --- *)

let test_oracle_negative_index_raises () =
  (* Regression: a negative slot index is a caller bug, not query 0 — it
     must raise without touching the meters. *)
  let o = Oracle.create (triangle ()) in
  Alcotest.check_raises "negative index"
    (Invalid_argument "Oracle.ith_neighbor: negative index") (fun () ->
      ignore (Oracle.ith_neighbor o 0 (-1)));
  Alcotest.(check int) "meters untouched" 0 (Oracle.total_queries o)

let test_faulty_oracle_disabled_bit_identical () =
  (* With Fault.disabled the faulty oracle's estimator must be
     bit-identical to the plain one: same estimate AND same metered query
     counts. *)
  let g = planted 20 in
  let run o =
    let r = Estimator.estimate (Prng.create 21) o ~eps:0.5 ~mode:Estimator.Modified in
    (r.Estimator.estimate, r.Estimator.total_queries, r.Estimator.degree_queries,
     Oracle.comm_bits o)
  in
  let plain = run (Oracle.create g) in
  let o = Oracle.create ~fault:Fault.disabled g in
  Alcotest.(check bool) "identical (estimate, queries, bits)" true (plain = run o);
  let stats = Oracle.stats o in
  Alcotest.(check int) "no retries" 0 stats.Oracle.retries;
  Alcotest.(check int) "no backoff" 0 stats.Oracle.backoff_units

let test_faulty_oracle_vote_k_validated () =
  let g = triangle () in
  Alcotest.check_raises "vote_k without faults"
    (Invalid_argument "Oracle.create: vote_k needs a fault injector") (fun () ->
      ignore (Oracle.create ~vote_k:3 g));
  Alcotest.check_raises "vote_k < 1"
    (Invalid_argument "Oracle.create: vote_k must be >= 1") (fun () ->
      ignore (Oracle.create ~fault:Fault.disabled ~vote_k:0 g))

let test_faulty_oracle_timeout_exhausts () =
  (* Every query times out: the retry budget runs dry and the oracle
     raises instead of silently answering. *)
  let rng = Prng.create 22 in
  let g = planted 23 in
  let fault = Fault.create (Fault.policy ~timeout:1.0 ()) rng in
  let o = Oracle.create ~fault g in
  (match Estimator.estimate rng o ~eps:1.0 ~mode:Estimator.Modified with
  | _ -> Alcotest.fail "estimator survived a fully dead oracle"
  | exception Oracle.Exhausted _ -> ());
  (* Timed-out queries were still issued and paid for. *)
  Alcotest.(check bool) "queries metered" true (Oracle.total_queries o > 0)

let test_faulty_oracle_majority_vote_domain_independent () =
  (* The majority-vote estimator fans trials over domains; explicit domain
     counts (not the DCS_DOMAINS env) so the test pins 1 vs 4 regardless
     of environment. Results must be bit-identical. *)
  let g = planted 25 in
  let trial t =
    let rng = Prng.create (1000 + t) in
    let fault = Fault.create (Fault.policy ~timeout:0.1 ~lie:0.05 ()) rng in
    let o = Oracle.create ~fault g in
    match Estimator.estimate rng o ~eps:1.0 ~mode:Estimator.Modified with
    | r ->
        let s = Oracle.stats o in
        (r.Estimator.estimate, r.Estimator.total_queries,
         s.Oracle.retries, s.Oracle.votes_cast)
    | exception Oracle.Exhausted _ -> (-1.0, 0, 0, 0)
  in
  let seq = Pool.parallel_init ~domains:1 ~n:6 trial in
  let par = Pool.parallel_init ~domains:4 ~n:6 trial in
  Alcotest.(check bool) "1 domain = 4 domains" true (seq = par);
  Alcotest.(check bool) "votes were cast" true
    (Array.exists (fun (_, _, _, v) -> v > 0) seq)

let test_verify_guess_exhausted_end_to_end () =
  (* A fully dead oracle under VERIFY-GUESS: Exhausted must surface to the
     caller (no silent acceptance/rejection), and the timed-out attempts
     were still issued, so the query meter is charged. *)
  let rng = Prng.create 26 in
  let g = planted 27 in
  let degrees = Array.init (Ugraph.n g) (fun u -> Ugraph.degree g u) in
  let fault = Fault.create (Fault.policy ~timeout:1.0 ()) rng in
  let o = Oracle.create ~fault g in
  (match Verify_guess.run rng o ~degrees ~t:4.0 ~eps:0.5 with
  | _ -> Alcotest.fail "verify-guess survived a fully dead oracle"
  | exception Oracle.Exhausted _ -> ());
  Alcotest.(check bool) "dead attempts still metered" true
    (Oracle.total_queries o > 0);
  Alcotest.(check bool) "retries recorded" true
    ((Oracle.stats o).Oracle.retries > 0)

let test_verify_guess_timeout_recovery_bit_identical () =
  (* Timeouts below the exhaustion threshold: retries eventually deliver
     the true answer, so the decision and estimate are bit-identical to
     the fault-free run — only the oracle meters pay for the recovery. *)
  let g = planted 28 in
  let degrees =
    let o = Oracle.create g in
    Array.init (Oracle.n o) (fun u -> Oracle.degree o u)
  in
  let clean =
    let o = Oracle.create g in
    let out = Verify_guess.run (Prng.create 29) o ~degrees ~t:4.0 ~eps:0.5 in
    (out.Verify_guess.accepted, out.Verify_guess.estimate, out.Verify_guess.edge_queries)
  in
  let fault = Fault.create (Fault.policy ~timeout:0.3 ()) (Prng.create 30) in
  let o = Oracle.create ~fault g in
  let out = Verify_guess.run (Prng.create 29) o ~degrees ~t:4.0 ~eps:0.5 in
  Alcotest.(check bool) "outcome bit-identical under recovered timeouts" true
    (clean
    = (out.Verify_guess.accepted, out.Verify_guess.estimate, out.Verify_guess.edge_queries));
  let retries = (Oracle.stats o).Oracle.retries in
  Alcotest.(check bool) "recovery forced retries" true (retries > 0);
  Alcotest.(check int) "every retry hit the meter"
    (out.Verify_guess.edge_queries + retries)
    (Oracle.total_queries o)

let prop_lemma55 =
  QCheck.Test.make ~name:"Lemma 5.5: MINCUT = 2·INT" ~count:10
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = Two_sum.generate rng ~t:16 ~len:16 ~alpha:1 ~frac_intersecting:0.12 in
      let x, y = Two_sum.concat_pair inst in
      match Gxy.predicted_mincut ~x ~y with
      | None -> true
      | Some predicted ->
          let g = Gxy.build ~x ~y in
          Float.abs (Stoer_wagner.mincut_value g -. float_of_int predicted) < 1e-9)

let suite =
  [
    Alcotest.test_case "oracle: degree" `Quick test_oracle_degree;
    Alcotest.test_case "oracle: ith neighbor" `Quick test_oracle_ith_neighbor;
    Alcotest.test_case "oracle: adjacent" `Quick test_oracle_adjacent;
    Alcotest.test_case "oracle: comm bits (Lemma 5.6)" `Quick test_oracle_comm_bits;
    Alcotest.test_case "oracle: reset" `Quick test_oracle_reset;
    Alcotest.test_case "oracle: memoization" `Quick test_oracle_memoization;
    Alcotest.test_case "oracle: no memoization pays" `Quick test_oracle_no_memoization_pays;
    Alcotest.test_case "gxy: Figure 2 instance" `Quick test_gxy_figure2;
    Alcotest.test_case "gxy: regular" `Quick test_gxy_regular;
    Alcotest.test_case "gxy: classify roundtrip" `Quick test_gxy_classify_vertex_roundtrip;
    Alcotest.test_case "gxy: witness cut" `Quick test_gxy_witness_cut;
    Alcotest.test_case "gxy: Lemma 5.5 random" `Quick test_gxy_lemma55_random;
    Alcotest.test_case "gxy: 2γ-connectivity (Figs 3-6)" `Quick test_gxy_edge_disjoint_paths_cases;
    Alcotest.test_case "gxy: rejects non-square" `Quick test_gxy_rejects_non_square;
    Alcotest.test_case "verify-guess: accepts small t" `Quick test_verify_guess_accepts_small_t;
    Alcotest.test_case "verify-guess: rejects huge t" `Quick test_verify_guess_rejects_huge_t;
    Alcotest.test_case "verify-guess: query scaling" `Quick test_verify_guess_query_scaling;
    Alcotest.test_case "verify-guess: full read exact" `Quick test_verify_guess_full_read_exact;
    Alcotest.test_case "estimator: modified accuracy" `Quick test_estimator_accuracy_modified;
    Alcotest.test_case "estimator: original accuracy" `Quick test_estimator_accuracy_original;
    Alcotest.test_case "estimator: degree queries" `Quick test_estimator_counts_degree_queries;
    Alcotest.test_case "estimator: query ceiling" `Quick test_estimator_query_cap;
    Alcotest.test_case "estimator: search calls" `Quick test_estimator_search_calls_logarithmic;
    Alcotest.test_case "estimator: comm bits" `Quick test_estimator_comm_bits_match;
    Alcotest.test_case "verify-guess: middle zone sane" `Quick test_verify_guess_middle_zone_sane;
    Alcotest.test_case "reduction: solves 2-SUM" `Quick test_reduction_solves_two_sum;
    Alcotest.test_case "reduction: hypothesis check" `Quick test_reduction_rejects_bad_instances;
    Alcotest.test_case "reduction: exact at full read" `Quick test_reduction_exact_at_full_read;
    Alcotest.test_case "oracle: negative index raises" `Quick test_oracle_negative_index_raises;
    Alcotest.test_case "faulty-oracle: disabled bit-identical" `Quick test_faulty_oracle_disabled_bit_identical;
    Alcotest.test_case "faulty-oracle: timeout exhausts" `Quick test_faulty_oracle_timeout_exhausts;
    Alcotest.test_case "faulty-oracle: vote_k validated" `Quick test_faulty_oracle_vote_k_validated;
    Alcotest.test_case "faulty-oracle: vote domain-independent" `Quick test_faulty_oracle_majority_vote_domain_independent;
    Alcotest.test_case "verify-guess: exhaustion reaches caller" `Quick test_verify_guess_exhausted_end_to_end;
    Alcotest.test_case "verify-guess: timeout recovery bit-identical" `Quick test_verify_guess_timeout_recovery_bit_identical;
    QCheck_alcotest.to_alcotest prop_lemma55;
  ]
