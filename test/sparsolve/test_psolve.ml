(* Certify/repair semantics of Dcs.Partial_mincut: the reported value is
   always an exact cut weight of the original graph; certification
   accepts only within the eps promise; violation falls back to the
   dense solver and reproduces its answer exactly. *)

open Dcs

let planted ~block ~k seed =
  Generators.planted_mincut (Prng.create seed) ~block ~k ~p_inner:0.5

(* On the planted instance the sparse path finds the planted cut, whose
   H-weight is exact (p = 1 on cross edges): certification passes and
   the repaired value equals the dense answer. *)
let test_certified_equals_dense () =
  let g = planted ~block:40 ~k:3 21 in
  let exact, _ = Stoer_wagner.mincut g in
  Alcotest.(check (float 1e-9)) "planted min cut" 3.0 exact;
  let r =
    Partial_mincut.mincut ~rho:8.0 ~cap:128.0 ~flow_budget:64 (Prng.create 2)
      ~eps:0.3
      ~solver:(Partial_mincut.Karger { trials = 64 })
      g
  in
  Alcotest.(check (float 1e-9)) "value = dense" exact r.Partial_mincut.value;
  Alcotest.(check bool) "certified" true r.Partial_mincut.stats.Partial_mincut.certified;
  Alcotest.(check bool) "no fallback" false r.Partial_mincut.stats.Partial_mincut.fell_back;
  Alcotest.(check bool)
    "solved fewer edges" true
    (r.Partial_mincut.stats.Partial_mincut.m_sparse
    < r.Partial_mincut.stats.Partial_mincut.m_full);
  Alcotest.(check (float 1e-9))
    "value is the cut's exact weight" r.Partial_mincut.value
    (Ugraph.cut_value g r.Partial_mincut.cut)

(* rho = 0.05 with cap 1 guts the sparsifier; the certifier must reject
   it and the dense rerun must reproduce Stoer-Wagner exactly. The gutted
   H is disconnected: Stoer-Wagner reports a zero cut, while the
   contraction solvers raise from inside a pooled trial, and every solver
   must fall back. *)
let test_forced_fallback_repairs () =
  let g = planted ~block:40 ~k:3 23 in
  let exact, _ = Stoer_wagner.mincut g in
  List.iter
    (fun solver ->
      let r =
        Partial_mincut.mincut ~rho:0.05 ~cap:1.0 (Prng.create 4) ~eps:0.3
          ~solver g
      in
      Alcotest.(check bool) "fell back" true r.Partial_mincut.stats.Partial_mincut.fell_back;
      Alcotest.(check bool) "not certified" false r.Partial_mincut.stats.Partial_mincut.certified;
      Alcotest.(check (float 1e-9)) "fallback = dense" exact r.Partial_mincut.value)
    [
      Partial_mincut.Stoer_wagner;
      Partial_mincut.Karger { trials = 16 };
      Partial_mincut.Karger_stein { runs = Some 1 };
    ]

(* Every solver through the same driver agrees up to the (1+eps) promise
   and never reports below the minimum (the value is a real cut weight). *)
let test_solver_routing_sound () =
  let g = planted ~block:40 ~k:3 29 in
  let exact, _ = Stoer_wagner.mincut g in
  List.iter
    (fun solver ->
      let r =
        Partial_mincut.mincut ~rho:8.0 ~cap:128.0 ~flow_budget:64
          (Prng.create 6) ~eps:0.3 ~solver g
      in
      Alcotest.(check bool)
        "never below the min cut" true
        (r.Partial_mincut.value >= exact -. 1e-9))
    [
      Partial_mincut.Karger { trials = 64 };
      Partial_mincut.Karger_stein { runs = Some 1 };
      Partial_mincut.Stoer_wagner;
    ]

(* rho >= cap keeps every edge (p = 1): H = G, so the directed s-t
   driver's sparse value equals the dense flow and certification is a
   tautology — the cleanest end-to-end check of the repair invariant. *)
let test_st_identity_certifies () =
  let g =
    Generators.balanced_digraph (Prng.create 31) ~n:60 ~p:0.3 ~beta:2.0
      ~max_weight:4.0
  in
  let dense = Dinic.maxflow (Dinic.of_digraph g) ~s:0 ~t:59 in
  let r =
    Partial_mincut.st_mincut ~rho:50.0 ~cap:50.0 (Prng.create 8) ~eps:0.3
      ~beta:2.0 ~s:0 ~t:59 g
  in
  Alcotest.(check (float 1e-6)) "sparse = dense flow" dense r.Partial_mincut.value;
  Alcotest.(check bool) "certified" true r.Partial_mincut.stats.Partial_mincut.certified;
  Alcotest.(check int)
    "H = G edge count" (Digraph.m g)
    r.Partial_mincut.stats.Partial_mincut.m_sparse

(* A caller's frozen view or estimates must describe the graph being
   solved. The repro: two weighted planted blocks (n = 80, m = 938, min
   cut 13) and a view of a copy with one crossing edge one unit heavier.
   Certified against that view, the sparse answer used to come back as a
   certified 14 for a cut that weighs 13 in the graph. *)
let weighted_planted seed =
  let r = Prng.create seed in
  Generators.random_multigraph_weights r
    (Generators.planted_mincut r ~block:40 ~k:3 ~p_inner:0.6)
    ~max_weight:6

let solve ?connectivity ?csr g =
  Partial_mincut.mincut ~domains:1 ~rho:14.0 ~cap:300.0 ?connectivity ?csr
    (Prng.create 0) ~eps:0.4
    ~solver:(Partial_mincut.Karger { trials = 32 })
    g

let test_stale_csr_rejected () =
  let g = weighted_planted 5 in
  Alcotest.(check (pair int int)) "instance" (80, 938) (Ugraph.n g, Ugraph.m g);
  Alcotest.(check (float 1e-9)) "min cut" 13.0 (Stoer_wagner.mincut_value g);
  let stale = Ugraph.copy g in
  let u, v, _ =
    List.find (fun (u, v, _) -> (u < 40) <> (v < 40))
      (Array.to_list (Ugraph.edges g))
  in
  Ugraph.add_edge stale u v 1.0;
  Alcotest.check_raises "stale csr"
    (Invalid_argument "Partial_mincut: csr does not describe the graph")
    (fun () -> ignore (solve ~csr:(Csr.of_ugraph stale) g));
  (* The same view next to this graph's own estimates: the linear merge
     against their edge list refuses it too. *)
  let conn = Connectivity.estimate_ugraph ~cap:300.0 g in
  Alcotest.check_raises "stale csr beside checked estimates"
    (Invalid_argument "Partial_mincut: csr does not describe the graph")
    (fun () -> ignore (solve ~connectivity:conn ~csr:(Csr.of_ugraph stale) g))

let test_foreign_connectivity_rejected () =
  let g = weighted_planted 5 in
  let other = Connectivity.estimate_ugraph ~cap:300.0 (weighted_planted 6) in
  Alcotest.check_raises "foreign connectivity"
    (Invalid_argument "Partial_mincut: connectivity does not describe the graph")
    (fun () -> ignore (solve ~connectivity:other g))

(* The graph's own view and estimates pass, and change nothing. *)
let test_own_view_and_estimates_accepted () =
  let g = weighted_planted 5 in
  let conn = Connectivity.estimate_ugraph ~cap:300.0 g in
  let plain = solve g in
  let reused = solve ~connectivity:conn ~csr:(Csr.of_ugraph g) g in
  Alcotest.(check (float 0.0)) "same value" plain.Partial_mincut.value
    reused.Partial_mincut.value;
  Alcotest.(check bool) "same cut" true
    (Cut.to_list plain.Partial_mincut.cut = Cut.to_list reused.Partial_mincut.cut);
  Alcotest.(check (float 1e-9)) "certified exact weight"
    (Ugraph.cut_value g reused.Partial_mincut.cut) reused.Partial_mincut.value

(* The directed estimator runs its flows on the view it is handed. *)
let test_foreign_digraph_csr_rejected () =
  let digraph seed =
    Generators.balanced_digraph (Prng.create seed) ~n:40 ~p:0.3 ~beta:2.0
      ~max_weight:4.0
  in
  let g = digraph 32 in
  let heavier = Digraph.copy g in
  let u, v, w = (Digraph.edges g).(0) in
  Digraph.set_edge heavier u v (w +. 1.0);
  List.iter
    (fun view ->
      Alcotest.check_raises "foreign digraph csr"
        (Invalid_argument
           "Connectivity.estimate_digraph: csr is a view of a different graph")
        (fun () ->
          ignore
            (Connectivity.estimate_digraph ~csr:(Csr.of_digraph view) ~beta:2.0
               ~cap:10.0 g)))
    [ heavier; digraph 33 ];
  let own = Connectivity.estimate_digraph ~csr:(Csr.of_digraph g) ~beta:2.0 ~cap:10.0 g in
  let fresh = Connectivity.estimate_digraph ~beta:2.0 ~cap:10.0 g in
  Alcotest.(check bool) "own view accepted, same estimates" true
    (Array.init (Array.length (Connectivity.edges own)) (Connectivity.lambda_at own)
    = Array.init (Array.length (Connectivity.edges fresh)) (Connectivity.lambda_at fresh))

let suite =
  [
    Alcotest.test_case "certified equals dense on planted" `Quick
      test_certified_equals_dense;
    Alcotest.test_case "forced fallback repairs exactly" `Quick
      test_forced_fallback_repairs;
    Alcotest.test_case "solver routing sound" `Quick test_solver_routing_sound;
    Alcotest.test_case "s-t identity certifies" `Quick test_st_identity_certifies;
    Alcotest.test_case "stale csr rejected" `Quick test_stale_csr_rejected;
    Alcotest.test_case "foreign connectivity rejected" `Quick
      test_foreign_connectivity_rejected;
    Alcotest.test_case "own view and estimates accepted" `Quick
      test_own_view_and_estimates_accepted;
    Alcotest.test_case "foreign digraph csr rejected" `Quick
      test_foreign_digraph_csr_rejected;
  ]
