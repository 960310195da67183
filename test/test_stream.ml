open Dcs

(* --- L0 sampler --- *)

let test_l0_zero () =
  let rng = Prng.create 1 in
  let s = L0_sampler.create rng ~universe:100 in
  Alcotest.(check (option (pair int int))) "query none" None (L0_sampler.query s)

let test_l0_singleton () =
  let rng = Prng.create 2 in
  let s = L0_sampler.create rng ~universe:100 in
  L0_sampler.update s 42 1;
  Alcotest.(check (option (pair int int))) "recovers" (Some (42, 1)) (L0_sampler.query s)

let test_l0_insert_delete_cancels () =
  let rng = Prng.create 3 in
  let s = L0_sampler.create rng ~universe:100 in
  L0_sampler.update s 17 1;
  L0_sampler.update s 23 1;
  L0_sampler.update s 17 (-1);
  L0_sampler.update s 23 (-1);
  Alcotest.(check (option (pair int int))) "back to zero" None (L0_sampler.query s)

let test_l0_query_returns_support () =
  let rng = Prng.create 4 in
  let hits = ref 0 and total = ref 0 in
  for seed = 1 to 60 do
    let s = L0_sampler.create (Prng.create (seed * 17)) ~universe:1000 in
    let support = Prng.sample_without_replacement rng ~k:20 ~n:1000 in
    Array.iter (fun i -> L0_sampler.update s i 1) support;
    incr total;
    match L0_sampler.query s with
    | Some (i, c) ->
        Alcotest.(check bool) "value 1" true (c = 1);
        Alcotest.(check bool) "in support" true (Array.exists (( = ) i) support);
        incr hits
    | None -> ()
  done;
  (* constant success probability; 60 trials should mostly succeed *)
  Alcotest.(check bool) "decodes most of the time" true
    (float_of_int !hits /. float_of_int !total >= 0.6)

let test_l0_negative_values () =
  let rng = Prng.create 5 in
  let s = L0_sampler.create rng ~universe:50 in
  L0_sampler.update s 7 (-3);
  Alcotest.(check (option (pair int int))) "negative" (Some (7, -3)) (L0_sampler.query s)

let test_l0_merge_linear () =
  let rng = Prng.create 6 in
  let fam = L0_sampler.create_family rng ~universe:100 ~count:2 in
  L0_sampler.update fam.(0) 10 1;
  L0_sampler.update fam.(0) 20 1;
  L0_sampler.update fam.(1) 10 (-1);
  (* merged = e_20 *)
  let acc = L0_sampler.copy fam.(0) in
  L0_sampler.merge_into ~dst:acc fam.(1);
  Alcotest.(check (option (pair int int))) "merge cancels" (Some (20, 1))
    (L0_sampler.query acc)

let test_l0_merge_family_check () =
  let rng = Prng.create 7 in
  let a = L0_sampler.create rng ~universe:10 in
  let b = L0_sampler.create rng ~universe:10 in
  Alcotest.check_raises "different families"
    (Invalid_argument "L0_sampler.merge_into: sketches from different families")
    (fun () -> L0_sampler.merge_into ~dst:a b)

(* --- AGM sketch --- *)

let test_agm_edge_index_injective () =
  let seen = Hashtbl.create 64 in
  for u = 0 to 7 do
    for v = u + 1 to 7 do
      let idx = Agm_sketch.edge_index ~n:8 u v in
      Alcotest.(check bool) "fresh" false (Hashtbl.mem seen idx);
      Hashtbl.replace seen idx ();
      Alcotest.(check int) "symmetric" idx (Agm_sketch.edge_index ~n:8 v u)
    done
  done

let test_agm_connected_path () =
  let rng = Prng.create 9 in
  let sk = Agm_sketch.create ~copies:5 rng ~n:10 in
  for v = 0 to 8 do
    Agm_sketch.add_edge sk v (v + 1)
  done;
  Alcotest.(check bool) "path connected" true (Agm_sketch.connected sk)

let test_agm_disconnected () =
  let rng = Prng.create 10 in
  let sk = Agm_sketch.create ~copies:5 rng ~n:6 in
  Agm_sketch.add_edge sk 0 1;
  Agm_sketch.add_edge sk 1 2;
  Agm_sketch.add_edge sk 3 4;
  let forest = Agm_sketch.spanning_forest sk in
  Alcotest.(check bool) "at most 3 forest edges" true (List.length forest <= 3);
  let comps = Agm_sketch.components_after_forest sk forest in
  (* vertex 5 isolated: labels of 0-2, 3-4, 5 all distinct (w.h.p. forest
     is complete within true components) *)
  Alcotest.(check bool) "separates 2 and 3" true (comps.(2) <> comps.(3));
  Alcotest.(check bool) "separates 4 and 5" true (comps.(4) <> comps.(5))

let test_agm_deletion_stream () =
  let rng = Prng.create 11 in
  let sk = Agm_sketch.create ~copies:5 rng ~n:8 in
  (* build a cycle, then delete one edge: still connected *)
  for v = 0 to 7 do
    Agm_sketch.add_edge sk v ((v + 1) mod 8)
  done;
  Agm_sketch.remove_edge sk 3 4;
  Alcotest.(check bool) "cycle minus edge connected" true (Agm_sketch.connected sk);
  (* deleting a second edge disconnects *)
  let sk2 = Agm_sketch.create ~copies:5 rng ~n:8 in
  for v = 0 to 7 do
    Agm_sketch.add_edge sk2 v ((v + 1) mod 8)
  done;
  Agm_sketch.remove_edge sk2 3 4;
  Agm_sketch.remove_edge sk2 7 0;
  let forest = Agm_sketch.spanning_forest sk2 in
  Alcotest.(check bool) "two components" true (List.length forest <= 6)

let test_agm_forest_edges_are_real () =
  let rng = Prng.create 12 in
  let g = Generators.erdos_renyi_connected rng ~n:20 ~p:0.15 in
  let sk = Agm_sketch.create ~copies:6 rng ~n:20 in
  Ugraph.iter_edges g (fun u v _ -> Agm_sketch.add_edge sk u v);
  let forest = Agm_sketch.spanning_forest sk in
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "edge exists in graph" true (Ugraph.mem_edge g u v))
    forest;
  (* forest is acyclic by construction of the union-find merge *)
  Alcotest.(check bool) "spanning" true (List.length forest = 19)

let test_agm_matches_bfs_connectivity () =
  let rng = Prng.create 13 in
  let ok = ref 0 in
  let trials = 15 in
  for seed = 1 to trials do
    let grng = Prng.create (seed * 101) in
    let g = Generators.erdos_renyi grng ~n:14 ~p:0.12 in
    let sk = Agm_sketch.create ~copies:6 rng ~n:14 in
    Ugraph.iter_edges g (fun u v _ -> Agm_sketch.add_edge sk u v);
    let truth = Dcs_graph.Traversal.is_connected g in
    let sketched = Agm_sketch.connected sk in
    (* sketch can only under-connect (decode failure), never over-connect *)
    if sketched then Alcotest.(check bool) "no false connectivity" true truth;
    if sketched = truth then incr ok
  done;
  Alcotest.(check bool) "mostly agrees" true
    (float_of_int !ok /. float_of_int trials >= 0.8)

let test_agm_size_scaling () =
  let rng = Prng.create 14 in
  let small = Agm_sketch.create rng ~n:16 in
  let large = Agm_sketch.create rng ~n:64 in
  let s = Agm_sketch.size_bits small and l = Agm_sketch.size_bits large in
  Alcotest.(check bool) "grows" true (l > s);
  (* O(n polylog): going 16 -> 64 should grow far less than the n² of an
     explicit edge set over a dense graph *)
  Alcotest.(check bool) "subquadratic growth" true
    (float_of_int l /. float_of_int s < 16.0)

let prop_l0_linearity =
  QCheck.Test.make ~name:"l0 sketches are linear (sum = sketch of sum)" ~count:30
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Dcs.Prng.create seed in
      let fam = Dcs.L0_sampler.create_family rng ~universe:200 ~count:3 in
      (* same random vector split arbitrarily across two sketches *)
      let whole = fam.(0) and part_a = fam.(1) and part_b = fam.(2) in
      for _ = 1 to 15 do
        let i = Dcs.Prng.int rng 200 in
        let d = Dcs.Prng.sign rng in
        Dcs.L0_sampler.update whole i d;
        if Dcs.Prng.bool rng then Dcs.L0_sampler.update part_a i d
        else Dcs.L0_sampler.update part_b i d
      done;
      let merged = Dcs.L0_sampler.copy part_a in
      Dcs.L0_sampler.merge_into ~dst:merged part_b;
      (* identical hash family + identical vector => identical sketch state,
         hence identical query answers *)
      Dcs.L0_sampler.query merged = Dcs.L0_sampler.query whole)

let suite =
  [
    Alcotest.test_case "l0: zero" `Quick test_l0_zero;
    Alcotest.test_case "l0: singleton" `Quick test_l0_singleton;
    Alcotest.test_case "l0: insert/delete" `Quick test_l0_insert_delete_cancels;
    Alcotest.test_case "l0: support recovery" `Quick test_l0_query_returns_support;
    Alcotest.test_case "l0: negative values" `Quick test_l0_negative_values;
    Alcotest.test_case "l0: merge linearity" `Quick test_l0_merge_linear;
    Alcotest.test_case "l0: family check" `Quick test_l0_merge_family_check;
    Alcotest.test_case "agm: edge index" `Quick test_agm_edge_index_injective;
    Alcotest.test_case "agm: path connected" `Quick test_agm_connected_path;
    Alcotest.test_case "agm: disconnected" `Quick test_agm_disconnected;
    Alcotest.test_case "agm: deletion stream" `Quick test_agm_deletion_stream;
    Alcotest.test_case "agm: forest edges real" `Quick test_agm_forest_edges_are_real;
    Alcotest.test_case "agm: matches bfs" `Quick test_agm_matches_bfs_connectivity;
    Alcotest.test_case "agm: size scaling" `Quick test_agm_size_scaling;
    QCheck_alcotest.to_alcotest prop_l0_linearity;
  ]
