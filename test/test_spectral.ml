open Dcs

let check_float = Alcotest.(check (float 1e-6))

(* --- Laplacian --- *)

let test_laplacian_entries () =
  let g = Ugraph.of_edges 3 [ (0, 1, 2.0); (1, 2, 3.0) ] in
  let l = Laplacian.of_ugraph g in
  check_float "diag 0" 2.0 (Laplacian.entry l 0 0);
  check_float "diag 1" 5.0 (Laplacian.entry l 1 1);
  check_float "off" (-2.0) (Laplacian.entry l 0 1);
  check_float "zero" 0.0 (Laplacian.entry l 0 2)

let test_laplacian_kernel () =
  let rng = Prng.create 1 in
  let g = Generators.erdos_renyi_connected rng ~n:12 ~p:0.3 in
  let l = Laplacian.of_ugraph g in
  let ones = Array.make 12 1.0 in
  Array.iter (fun v -> check_float "L·1 = 0" 0.0 v) (Laplacian.apply l ones)

let test_quadratic_form_explicit () =
  let g = Ugraph.of_edges 3 [ (0, 1, 2.0); (1, 2, 3.0) ] in
  let l = Laplacian.of_ugraph g in
  (* x = (1, 0, 2): 2·(1-0)² + 3·(0-2)² = 14 *)
  check_float "form" 14.0 (Laplacian.quadratic_form l [| 1.0; 0.0; 2.0 |])

let test_quadratic_form_nonnegative () =
  let rng = Prng.create 2 in
  let g = Generators.erdos_renyi_connected rng ~n:10 ~p:0.4 in
  let l = Laplacian.of_ugraph g in
  for _ = 1 to 30 do
    let x = Array.init 10 (fun _ -> Prng.gaussian rng) in
    Alcotest.(check bool) "PSD" true (Laplacian.quadratic_form l x >= -1e-9)
  done

let test_cut_value_matches_graph () =
  let rng = Prng.create 3 in
  let g = Generators.erdos_renyi_connected rng ~n:11 ~p:0.35 in
  let l = Laplacian.of_ugraph g in
  for _ = 1 to 20 do
    let c = Cut.random rng ~n:11 in
    check_float "xᵀLx = cut" (Ugraph.cut_value g c) (Laplacian.cut_value l c)
  done

let test_solve_accuracy () =
  let rng = Prng.create 4 in
  let g = Generators.erdos_renyi_connected rng ~n:15 ~p:0.3 in
  let l = Laplacian.of_ugraph g in
  for _ = 1 to 5 do
    let b = Array.init 15 (fun _ -> Prng.gaussian rng) in
    let mean = Array.fold_left ( +. ) 0.0 b /. 15.0 in
    let b = Array.map (fun v -> v -. mean) b in
    let x = Laplacian.solve l b in
    let lx = Laplacian.apply l x in
    Array.iteri
      (fun i v -> Alcotest.(check (float 1e-5)) "Lx = b" b.(i) v)
      lx
  done

(* --- Effective resistance --- *)

let test_resistance_single_edge () =
  let g = Ugraph.of_edges 2 [ (0, 1, 4.0) ] in
  (* conductance 4 -> resistance 1/4 *)
  check_float "R = 1/w" 0.25 (Resistance.pair g 0 1)

let test_resistance_path_series () =
  (* resistances in series add: 1/2 + 1/3 *)
  let g = Ugraph.of_edges 3 [ (0, 1, 2.0); (1, 2, 3.0) ] in
  check_float "series" (0.5 +. (1.0 /. 3.0)) (Resistance.pair g 0 2)

let test_resistance_parallel () =
  (* two unit edges in parallel via a multigraph weight 2 *)
  let g = Ugraph.of_edges 2 [ (0, 1, 2.0) ] in
  check_float "parallel" 0.5 (Resistance.pair g 0 1)

let test_resistance_cycle () =
  (* unit cycle of length 4: R across one edge = (1·3)/(1+3) = 3/4 *)
  let g = Generators.cycle ~n:4 in
  check_float "cycle" 0.75 (Resistance.pair g 0 1)

let test_foster_theorem () =
  let rng = Prng.create 5 in
  for _ = 1 to 5 do
    let g = Generators.erdos_renyi_connected rng ~n:14 ~p:0.3 in
    let g = Generators.random_multigraph_weights rng g ~max_weight:5 in
    Alcotest.(check (float 1e-4)) "Σ wR = n-1" 13.0 (Resistance.foster_sum g)
  done

let test_all_edges_consistent_with_pair () =
  let rng = Prng.create 6 in
  let g = Generators.erdos_renyi_connected rng ~n:10 ~p:0.35 in
  let all = Resistance.all_edges g in
  Ugraph.iter_edges g (fun u v _ ->
      Alcotest.(check (float 1e-5)) "matches pair"
        (Resistance.pair g u v)
        (Hashtbl.find all (min u v, max u v)))

(* CG on a disconnected Laplacian returns garbage (R(0,2) = 4 and a
   Foster sum of -9e15 on this graph), so every entry point refuses it. *)
let test_resistance_refuses_disconnected () =
  let g = Ugraph.of_edges 3 [ (0, 1, 1.0) ] in
  let refuses name f =
    Alcotest.check_raises name (Invalid_argument (name ^ ": graph must be connected"))
      (fun () -> ignore (f g))
  in
  refuses "Resistance.pair" (fun g -> Resistance.pair g 0 2);
  refuses "Resistance.all_edges" Resistance.all_edges;
  refuses "Resistance.foster_sum" Resistance.foster_sum

(* --- Spectral sparsifier --- *)

let test_spectral_sparsifier_preserves_cuts () =
  let rng = Prng.create 7 in
  let g =
    Generators.random_multigraph_weights rng (Generators.complete ~n:40) ~max_weight:10
  in
  let h = Spectral_sparsifier.sparsify rng ~eps:0.3 g in
  let worst = ref 0.0 in
  for _ = 1 to 30 do
    let c = Cut.random rng ~n:40 in
    let truth = Ugraph.cut_value g c in
    worst := Float.max !worst (Float.abs (Ugraph.cut_value h c -. truth) /. truth)
  done;
  Alcotest.(check bool) "cuts within eps" true (!worst <= 0.3)

let test_spectral_sparsifier_preserves_quadratic_forms () =
  let rng = Prng.create 8 in
  let g =
    Generators.random_multigraph_weights rng (Generators.complete ~n:30) ~max_weight:10
  in
  let h = Spectral_sparsifier.sparsify rng ~eps:0.25 g in
  let lg = Laplacian.of_ugraph g and lh = Laplacian.of_ugraph h in
  let worst = ref 0.0 in
  for _ = 1 to 30 do
    let x = Array.init 30 (fun _ -> Prng.gaussian rng) in
    let a = Laplacian.quadratic_form lg x and b = Laplacian.quadratic_form lh x in
    if a > 1e-9 then worst := Float.max !worst (Float.abs (b -. a) /. a)
  done;
  Alcotest.(check bool) "forms within eps" true (!worst <= 0.25)

let test_spectral_sparsifier_shrinks_dense () =
  let rng = Prng.create 9 in
  let g =
    Generators.random_multigraph_weights rng (Generators.complete ~n:60) ~max_weight:20
  in
  let h = Spectral_sparsifier.sparsify rng ~eps:0.5 g in
  Alcotest.(check bool) "fewer edges" true (Ugraph.m h < Ugraph.m g)

let test_spectral_expected_matches_foster () =
  (* On a complete unit graph at large eps, p_e < 1 everywhere, so the
     expected edge count is c·ln n/eps² · Σ w R = c·ln n/eps²·(n-1). *)
  let g = Generators.complete ~n:30 in
  let expected = Spectral_sparsifier.expected_edges ~c:0.05 ~eps:0.9 g in
  let formula = 0.05 *. log 30.0 /. (0.9 *. 0.9) *. 29.0 in
  Alcotest.(check bool) "matches Foster prediction" true
    (Float.abs (expected -. formula) /. formula < 0.01)

let prop_resistance_triangle_inequality =
  QCheck.Test.make ~name:"effective resistance is a metric (triangle)" ~count:15
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Generators.erdos_renyi_connected rng ~n:9 ~p:0.4 in
      let u = Prng.int rng 9 and v = Prng.int rng 9 and w = Prng.int rng 9 in
      u = v || v = w || u = w
      || Resistance.pair g u w
         <= Resistance.pair g u v +. Resistance.pair g v w +. 1e-6)

let suite =
  [
    Alcotest.test_case "laplacian: entries" `Quick test_laplacian_entries;
    Alcotest.test_case "laplacian: kernel" `Quick test_laplacian_kernel;
    Alcotest.test_case "laplacian: quadratic form" `Quick test_quadratic_form_explicit;
    Alcotest.test_case "laplacian: PSD" `Quick test_quadratic_form_nonnegative;
    Alcotest.test_case "laplacian: cut via form" `Quick test_cut_value_matches_graph;
    Alcotest.test_case "laplacian: CG solve" `Quick test_solve_accuracy;
    Alcotest.test_case "resistance: single edge" `Quick test_resistance_single_edge;
    Alcotest.test_case "resistance: series" `Quick test_resistance_path_series;
    Alcotest.test_case "resistance: parallel" `Quick test_resistance_parallel;
    Alcotest.test_case "resistance: cycle" `Quick test_resistance_cycle;
    Alcotest.test_case "resistance: refuses a disconnected graph" `Quick
      test_resistance_refuses_disconnected;
    Alcotest.test_case "resistance: Foster's theorem" `Quick test_foster_theorem;
    Alcotest.test_case "resistance: all edges" `Quick test_all_edges_consistent_with_pair;
    Alcotest.test_case "spectral: preserves cuts" `Quick test_spectral_sparsifier_preserves_cuts;
    Alcotest.test_case "spectral: preserves forms" `Quick test_spectral_sparsifier_preserves_quadratic_forms;
    Alcotest.test_case "spectral: shrinks dense" `Quick test_spectral_sparsifier_shrinks_dense;
    Alcotest.test_case "spectral: Foster prediction" `Quick test_spectral_expected_matches_foster;
    QCheck_alcotest.to_alcotest prop_resistance_triangle_inequality;
  ]
