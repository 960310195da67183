(* Connectivity-sampled sparsifiers: the p = min(1, rho/lambda-hat)
   contract in isolation — identity when the cap pins every probability
   at 1, byte-determinism across reruns and domain counts, and exact
   preservation of weak planted edges. *)

open Dcs

let ugraph seed ~n ~p ~max_weight =
  let rng = Prng.create seed in
  let g0 = Generators.erdos_renyi_connected rng ~n ~p in
  Generators.random_multigraph_weights rng g0 ~max_weight

(* cap <= rho pins p = rho/lambda-hat >= 1 everywhere: the sparsifier is
   the identity (binomial_keep at p = 1 keeps the exact weight). *)
let test_identity_when_cap_leq_rho () =
  let g = ugraph 7 ~n:40 ~p:0.3 ~max_weight:5 in
  let h, conn =
    Partial_mincut.sparsify ~rho:10.0 ~cap:10.0 (Prng.create 1) g
  in
  Alcotest.(check bool) "identity" true (Ugraph.equal g h);
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool)
        "lambda-hat <= cap" true
        (Connectivity.lambda_at conn i <= 10.0 +. 1e-9))
    (Connectivity.edges conn)

let test_sparsify_deterministic () =
  let g = ugraph 11 ~n:60 ~p:0.4 ~max_weight:6 in
  let h1, _ = Partial_mincut.sparsify ~rho:6.0 (Prng.create 42) g in
  let h2, _ = Partial_mincut.sparsify ~rho:6.0 (Prng.create 42) g in
  Alcotest.(check bool) "same sparsifier" true (Ugraph.equal h1 h2);
  Alcotest.(check bool) "strictly sparser" true (Ugraph.m h1 < Ugraph.m g)

(* Estimates — and therefore the sampled graph — are a pure function of
   graph content, independent of the worker-domain count. *)
let test_domain_count_identity () =
  let g = ugraph 13 ~n:60 ~p:0.4 ~max_weight:6 in
  let lambdas domains =
    let conn =
      Connectivity.estimate_ugraph ~domains ~flow_budget:16 ~cap:64.0 g
    in
    Array.mapi (fun i _ -> Connectivity.lambda_at conn i)
      (Connectivity.edges conn)
  in
  let l1 = lambdas 1 in
  List.iter
    (fun d ->
      Alcotest.(check (array (float 0.0))) "lambda across domains" l1 (lambdas d))
    [ 2; 4 ];
  let sparse domains =
    let conn =
      Connectivity.estimate_ugraph ~domains ~flow_budget:16 ~cap:64.0 g
    in
    fst
      (Partial_mincut.sparsify ~rho:6.0 ~connectivity:conn (Prng.create 5)
         g)
  in
  Alcotest.(check bool) "H across domains" true (Ugraph.equal (sparse 1) (sparse 2))

(* Planted two-block instance: the k cross edges have true local
   connectivity k < rho, so lambda-hat <= k pins p = 1 and the planted
   cut survives sampling with its weight exact. *)
let test_planted_cut_kept_exactly () =
  let block = 30 and k = 3 in
  let g = Generators.planted_mincut (Prng.create 3) ~block ~k ~p_inner:0.5 in
  let h, conn =
    Partial_mincut.sparsify ~rho:8.0 ~cap:128.0 ~flow_budget:64
      (Prng.create 9) g
  in
  let planted u = u < block in
  Alcotest.(check (float 1e-9))
    "planted cut exact in H" (float_of_int k) (Ugraph.cut_weight h planted);
  Connectivity.iter conn (fun u v _ lam ->
      if planted u <> planted v then
        Alcotest.(check bool)
          "cross lambda-hat <= k" true
          (lam <= float_of_int k +. 1e-9))

(* Golden pins for the sampler's bytes: which edges it keeps and at what
   weight, on (a) integer weights (the binomial branch of binomial_keep),
   (b) the same graph with fractional weights (the Bernoulli branch) and
   (c) a beta = 2 digraph, plus the exact expected kept count at three
   rates. Any change to the keep probability, the per-edge stream split or
   the canonical edge order moves these. *)
let graph_digest edges =
  Array.fold_left
    (fun h (u, v, w) ->
      List.fold_left
        (fun h x -> Prng.mix64 (Int64.logxor h x))
        h
        [ Int64.of_int u; Int64.of_int v; Int64.bits_of_float w ])
    (Int64.of_int (Array.length edges))
    edges

let test_sampler_golden () =
  let g = ugraph 19 ~n:50 ~p:0.4 ~max_weight:6 in
  let sparse g =
    let h, _ =
      Partial_mincut.sparsify ~rho:5.0 ~cap:60.0 ~flow_budget:40
        (Prng.create 3) g
    in
    Ugraph.edges h
  in
  let a = sparse g in
  Alcotest.(check int) "(a) kept" 215 (Array.length a);
  Alcotest.(check int64) "(a) digest" (-7084796605703215572L) (graph_digest a);
  let gf = Ugraph.copy g in
  Array.iter
    (fun (u, v, w) -> Ugraph.set_edge gf u v ((w *. 0.7) +. 0.15))
    (Ugraph.edges g);
  let b = sparse gf in
  Alcotest.(check int) "(b) kept" 115 (Array.length b);
  Alcotest.(check int64) "(b) digest" (-3407592536820593232L) (graph_digest b);
  let d =
    Generators.balanced_digraph (Prng.create 61) ~n:40 ~p:0.3 ~beta:2.0
      ~max_weight:6.0
  in
  let conn =
    Connectivity.estimate_digraph ~beta:2.0 ~flow_budget:30 ~cap:40.0 d
  in
  let h = Digraph.create (Digraph.n d) in
  Connectivity.sample conn ~rho:4.0 (Prng.create 5) (Digraph.add_edge h);
  let c = Digraph.edges h in
  Alcotest.(check int) "(c) kept" 146 (Array.length c);
  Alcotest.(check int64) "(c) digest" (-8243882800277622497L) (graph_digest c);
  List.iter
    (fun (rho, bits) ->
      Alcotest.(check int64)
        (Printf.sprintf "expected_kept rho=%g" rho)
        bits
        (Int64.bits_of_float (Connectivity.expected_kept conn ~rho)))
    [
      (1.0, 4630465393500398900L);
      (4.0, 4639472592755139892L);
      (16.0, 4648429181602588076L);
    ]

(* The directed twin of the identity case: cap <= rho keeps every arc at
   its exact weight. *)
let test_directed_identity_when_cap_leq_rho () =
  let d =
    Generators.balanced_digraph (Prng.create 37) ~n:40 ~p:0.3 ~beta:2.0
      ~max_weight:5.0
  in
  let conn = Connectivity.estimate_digraph ~beta:2.0 ~cap:10.0 d in
  let h = Digraph.create (Digraph.n d) in
  Connectivity.sample conn ~rho:10.0 (Prng.create 1) (Digraph.add_edge h);
  Alcotest.(check bool) "identity" true (Digraph.equal d h)

(* rho and cap must be > 0, NaN included; eps must lie in (0, 1). Each
   rejection comes before any estimation runs: conn.edges stays put. *)
let test_rho_validation () =
  let g = ugraph 17 ~n:10 ~p:0.5 ~max_weight:3 in
  let d =
    Generators.balanced_digraph (Prng.create 3) ~n:10 ~p:0.4 ~beta:2.0
      ~max_weight:4.0
  in
  let conn = Connectivity.estimate_ugraph ~cap:4.0 g in
  let estimated = Obs.Metrics.counter "conn.edges" in
  let before = Obs.Metrics.counter_value estimated in
  let rho_error = Invalid_argument "Partial_mincut: rho must be positive" in
  let cap_error = Invalid_argument "Connectivity: cap must be positive" in
  let eps_error = Invalid_argument "Partial_mincut: eps in (0,1)" in
  let st ?cap ~rho ~eps () =
    ignore
      (Partial_mincut.st_mincut ?cap ~rho (Prng.create 1) ~eps ~beta:2.0 ~s:0
         ~t:9 d)
  in
  let solve ~rho ~eps () =
    ignore
      (Partial_mincut.mincut ~rho (Prng.create 1) ~eps
         ~solver:Partial_mincut.Stoer_wagner g)
  in
  List.iter
    (fun rho ->
      Alcotest.check_raises "sparsify rho" rho_error (fun () ->
          ignore (Partial_mincut.sparsify ~rho (Prng.create 1) g));
      Alcotest.check_raises "mincut rho" rho_error (solve ~rho ~eps:0.5);
      Alcotest.check_raises "st_mincut rho" rho_error (st ~rho ~eps:0.5);
      Alcotest.check_raises "sample rho"
        (Invalid_argument "Connectivity.sample: rho must be positive")
        (fun () -> Connectivity.sample conn ~rho (Prng.create 1) (fun _ _ _ -> ())))
    [ 0.0; -1.0; nan ];
  List.iter
    (fun cap ->
      Alcotest.check_raises "sparsify cap" cap_error (fun () ->
          ignore (Partial_mincut.sparsify ~rho:1.0 ~cap (Prng.create 1) g));
      Alcotest.check_raises "st_mincut cap" cap_error
        (st ~cap ~rho:1.0 ~eps:0.5);
      Alcotest.check_raises "estimate_ugraph cap" cap_error (fun () ->
          ignore (Connectivity.estimate_ugraph ~cap g)))
    [ 0.0; nan ];
  List.iter
    (fun eps ->
      Alcotest.check_raises "mincut eps" eps_error (solve ~rho:1.0 ~eps);
      Alcotest.check_raises "st_mincut eps" eps_error (st ~rho:1.0 ~eps))
    [ 0.0; 1.5; nan ];
  Alcotest.(check int)
    "no estimation ran" before
    (Obs.Metrics.counter_value estimated)

let suite =
  [
    Alcotest.test_case "cap <= rho is the identity" `Quick
      test_identity_when_cap_leq_rho;
    Alcotest.test_case "sparsify is deterministic" `Quick
      test_sparsify_deterministic;
    Alcotest.test_case "identical across domain counts" `Quick
      test_domain_count_identity;
    Alcotest.test_case "planted cut kept exactly" `Quick
      test_planted_cut_kept_exactly;
    Alcotest.test_case "parameter validation" `Quick test_rho_validation;
    Alcotest.test_case "golden samples" `Quick test_sampler_golden;
    Alcotest.test_case "directed cap <= rho is the identity" `Quick
      test_directed_identity_when_cap_leq_rho;
  ]
