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

let suite =
  [
    Alcotest.test_case "certified equals dense on planted" `Quick
      test_certified_equals_dense;
    Alcotest.test_case "forced fallback repairs exactly" `Quick
      test_forced_fallback_repairs;
    Alcotest.test_case "solver routing sound" `Quick test_solver_routing_sound;
    Alcotest.test_case "s-t identity certifies" `Quick test_st_identity_certifies;
  ]
