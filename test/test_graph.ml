open Dcs

let check_float = Alcotest.(check (float 1e-9))

(* --- Digraph --- *)

let test_digraph_basic () =
  let g = Digraph.create 4 in
  Alcotest.(check int) "n" 4 (Digraph.n g);
  Alcotest.(check int) "m empty" 0 (Digraph.m g);
  Digraph.add_edge g 0 1 2.0;
  Digraph.add_edge g 0 1 3.0;
  Alcotest.(check int) "m merged" 1 (Digraph.m g);
  check_float "accumulated" 5.0 (Digraph.weight g 0 1);
  check_float "absent" 0.0 (Digraph.weight g 1 0)

let test_digraph_set_remove () =
  let g = Digraph.create 3 in
  Digraph.set_edge g 0 1 2.0;
  Digraph.set_edge g 0 1 0.0;
  Alcotest.(check int) "removed" 0 (Digraph.m g);
  Alcotest.(check bool) "mem" false (Digraph.mem_edge g 0 1)

(* NaN and infinite weights are rejected at every entry point, like
   negative ones, and leave the graph untouched: a stored NaN arc would
   turn every cut through it into NaN, and [add_edge] used to drop NaN
   silently ([nan > 0.0] is false). *)
let check_non_finite_rejected ~label ~m entry =
  List.iter
    (fun w ->
      Alcotest.check_raises
        (Printf.sprintf "%s %h" label w)
        (Invalid_argument (label ^ ": non-finite weight"))
        (fun () -> entry w);
      Alcotest.(check int) (Printf.sprintf "%s %h: nothing stored" label w) 1 (m ()))
    [ nan; infinity; neg_infinity ]

let test_digraph_rejects () =
  let g = Digraph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.set_edge: self-loop")
    (fun () -> Digraph.add_edge g 1 1 1.0);
  Alcotest.check_raises "negative" (Invalid_argument "Digraph.add_edge: negative weight")
    (fun () -> Digraph.add_edge g 0 1 (-1.0));
  Digraph.add_edge g 1 2 1.0;
  let m () = Digraph.m g in
  check_non_finite_rejected ~label:"Digraph.set_edge" ~m (fun w -> Digraph.set_edge g 0 1 w);
  check_non_finite_rejected ~label:"Digraph.add_edge" ~m (fun w -> Digraph.add_edge g 0 1 w)

let test_ugraph_rejects () =
  let g = Ugraph.of_edges 3 [ (1, 2, 1.0) ] in
  let m () = Ugraph.m g in
  check_non_finite_rejected ~label:"Ugraph.set_edge" ~m (fun w -> Ugraph.set_edge g 0 1 w);
  check_non_finite_rejected ~label:"Ugraph.add_edge" ~m (fun w -> Ugraph.add_edge g 0 1 w)

let test_digraph_degrees () =
  let g = Digraph.of_edges 4 [ (0, 1, 1.0); (0, 2, 2.0); (3, 0, 4.0) ] in
  Alcotest.(check int) "out deg" 2 (Digraph.out_degree g 0);
  Alcotest.(check int) "in deg" 1 (Digraph.in_degree g 0);
  check_float "out weight" 3.0 (Digraph.out_weight g 0);
  check_float "in weight" 4.0 (Digraph.in_weight g 0)

let test_digraph_reverse () =
  let g = Digraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 2.0) ] in
  let r = Digraph.reverse g in
  check_float "reversed edge" 1.0 (Digraph.weight r 1 0);
  check_float "reversed edge 2" 2.0 (Digraph.weight r 2 1);
  Alcotest.(check bool) "double reverse" true (Digraph.equal g (Digraph.reverse r))

let test_digraph_copy_independent () =
  let g = Digraph.of_edges 3 [ (0, 1, 1.0) ] in
  let h = Digraph.copy g in
  Digraph.add_edge h 1 2 1.0;
  Alcotest.(check int) "original unchanged" 1 (Digraph.m g);
  Alcotest.(check int) "copy changed" 2 (Digraph.m h)

let test_digraph_cut_weight () =
  (* 0 -> 1 (3), 1 -> 0 (1), 0 -> 2 (5), 2 -> 1 (7) *)
  let g = Digraph.of_edges 3 [ (0, 1, 3.0); (1, 0, 1.0); (0, 2, 5.0); (2, 1, 7.0) ] in
  let mem v = v = 0 in
  check_float "w(S, V-S)" 8.0 (Digraph.cut_weight g mem);
  check_float "w(V-S, S)" 1.0 (Digraph.cut_weight_into g mem)

let test_digraph_total_weight () =
  let g = Digraph.of_edges 3 [ (0, 1, 3.0); (1, 2, 4.0) ] in
  check_float "total" 7.0 (Digraph.total_weight g)

(* The symmetrization programs use is the undirected projection. *)
let test_digraph_symmetrize () =
  let g = Digraph.of_edges 2 [ (0, 1, 3.0); (1, 0, 1.0) ] in
  let s = Ugraph.of_digraph g in
  check_float "sym forward" 4.0 (Ugraph.weight s 0 1);
  check_float "sym backward" 4.0 (Ugraph.weight s 1 0)

(* --- Ugraph --- *)

let test_ugraph_basic () =
  let g = Ugraph.create 4 in
  Ugraph.add_edge g 0 1 2.0;
  Ugraph.add_edge g 1 0 3.0;
  Alcotest.(check int) "merged" 1 (Ugraph.m g);
  check_float "symmetric weight" 5.0 (Ugraph.weight g 0 1);
  check_float "symmetric weight'" 5.0 (Ugraph.weight g 1 0)

let test_ugraph_degree () =
  let g = Ugraph.of_edges 4 [ (0, 1, 1.0); (0, 2, 2.0) ] in
  Alcotest.(check int) "degree" 2 (Ugraph.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Ugraph.degree g 1)

let test_ugraph_iter_edges_once () =
  let g = Ugraph.of_edges 4 [ (0, 1, 1.0); (2, 1, 2.0); (3, 0, 3.0) ] in
  let count = ref 0 in
  Ugraph.iter_edges g (fun u v _ ->
      incr count;
      Alcotest.(check bool) "u < v" true (u < v));
  Alcotest.(check int) "each once" 3 !count

let test_ugraph_cut () =
  let g = Ugraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 4.0); (3, 0, 8.0) ] in
  let c = Cut.of_indices ~n:4 [ 0; 1 ] in
  check_float "cycle cut" 10.0 (Ugraph.cut_value g c)

let test_ugraph_digraph_roundtrip () =
  let g = Ugraph.of_edges 4 [ (0, 1, 1.5); (1, 2, 2.5) ] in
  let d = Csr.to_digraph (Csr.of_ugraph g) in
  Alcotest.(check int) "directed edges doubled" 4 (Digraph.m d);
  let back = Ugraph.of_digraph d in
  (* of_digraph adds both directions: weights double *)
  check_float "weights doubled" 3.0 (Ugraph.weight back 0 1)

let test_ugraph_cut_matches_digraph_cut () =
  let rng = Prng.create 42 in
  for _ = 1 to 20 do
    let g = Generators.erdos_renyi rng ~n:12 ~p:0.4 in
    let d = Csr.to_digraph (Csr.of_ugraph g) in
    let c = Cut.random rng ~n:12 in
    check_float "undirected = directed on symmetric"
      (Ugraph.cut_value g c) (Cut.value d c)
  done

let test_neighbor_array_sorted () =
  let g = Ugraph.of_edges 5 [ (2, 4, 1.0); (2, 0, 1.0); (2, 3, 1.0) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 3; 4 |] (Ugraph.neighbor_array g 2)

(* A vertex gets its adjacency table at its first arc, so creating a
   graph allocates one word per vertex per table array (two for a
   digraph's out- and in-tables), not a 16-bucket table each. *)
let test_create_words_per_vertex () =
  let n = 1 lsl 16 in
  let words_per_vertex create =
    (* Empty the minor heap first: a collection forced inside [create]
       skews the allocation counters. *)
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (create n));
    let bytes = Gc.allocated_bytes () -. before in
    Float.round (bytes /. float_of_int (Sys.word_size / 8 * n))
  in
  check_float "Digraph.create" 2.0 (words_per_vertex Digraph.create);
  check_float "Ugraph.create" 1.0 (words_per_vertex Ugraph.create)

(* --- Csr (frozen graphs) --- *)

(* Random digraph with small integer weights: float sums are exact in any
   order, so CSR and hashtable traversals must agree bit for bit. *)
let random_int_digraph rng ~n ~p ~max_weight =
  let g = Digraph.create n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Prng.float rng 1.0 < p then
        Digraph.add_edge g u v (float_of_int (1 + Prng.int rng max_weight))
    done
  done;
  g

let test_csr_basic () =
  let g = Digraph.of_edges 4 [ (0, 1, 2.0); (0, 3, 1.0); (2, 0, 4.0) ] in
  let c = Csr.of_digraph g in
  Alcotest.(check int) "n" 4 (Csr.n c);
  Alcotest.(check int) "m" 3 (Csr.m c);
  check_float "weight" 2.0 (Csr.weight c 0 1);
  check_float "absent" 0.0 (Csr.weight c 1 0);
  let out_r = Csr.out_rows c and in_r = Csr.in_rows c in
  Alcotest.(check int) "out deg" 2 (out_r.off.(1) - out_r.off.(0));
  Alcotest.(check int) "in deg" 1 (in_r.off.(1) - in_r.off.(0));
  Alcotest.(check int) "in-row source" 2 in_r.dst.(in_r.off.(0))

let test_csr_iter_sorted () =
  let g = Digraph.of_edges 5 [ (2, 4, 1.0); (2, 0, 1.0); (2, 3, 1.0) ] in
  let c = Csr.of_digraph g in
  let seen = ref [] in
  Csr.iter_out c 2 (fun v _ -> seen := v :: !seen);
  Alcotest.(check (list int)) "ascending" [ 0; 3; 4 ] (List.rev !seen)

let test_csr_reverse () =
  let g = Digraph.of_edges 3 [ (0, 1, 3.0); (1, 0, 1.0); (2, 1, 5.0) ] in
  let c = Csr.of_digraph g in
  let r = Csr.reverse c in
  check_float "reversed edge" 3.0 (Csr.weight r 1 0);
  check_float "double reverse" (Csr.weight c 2 1) (Csr.weight (Csr.reverse r) 2 1);
  let mem v = v = 1 in
  check_float "reverse swaps cut directions"
    (Csr.cut_weight c (fun v -> not (mem v))) (Csr.cut_weight r mem)

let test_csr_cut_delta_hand () =
  (* 0 -> 1 (3), 1 -> 0 (1), 0 -> 2 (5), 2 -> 1 (7); S = {0}: cut = 8. *)
  let g = Digraph.of_edges 3 [ (0, 1, 3.0); (1, 0, 1.0); (0, 2, 5.0); (2, 1, 7.0) ] in
  let c = Csr.of_digraph g in
  let side = [| true; false; false |] in
  let cut = Csr.cut_weight c (fun v -> side.(v)) in
  check_float "seed cut" 8.0 cut;
  (* Flip 1 into S: new cut {0,1} -> out = 5 (0->2) + 0 + 7? no: edges
     leaving {0,1}: 0->2 (5). Entering: 2->1 (7). Forward cut = 5. *)
  let d = Csr.cut_delta c side 1 in
  side.(1) <- true;
  check_float "after flip in" 5.0 (cut +. d);
  let d2 = Csr.cut_delta c side 1 in
  side.(1) <- false;
  check_float "flip back restores" 8.0 (cut +. d +. d2)

let test_csr_validation () =
  let g = Digraph.of_edges 3 [ (0, 1, 1.0) ] in
  let c = Csr.of_digraph g in
  Alcotest.check_raises "cut_value wrong n"
    (Invalid_argument "Csr.cut_value: size mismatch")
    (fun () -> ignore (Csr.cut_value c (Cut.of_indices ~n:4 [ 0 ])));
  Alcotest.check_raises "cut_delta bad vertex"
    (Invalid_argument "Csr.cut_delta")
    (fun () -> ignore (Csr.cut_delta c (Array.make 3 false) 3))

let prop_csr_matches_digraph =
  QCheck.Test.make ~name:"CSR view agrees with hashtable digraph" ~count:50
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 3 + Prng.int rng 12 in
      let g = random_int_digraph rng ~n ~p:0.35 ~max_weight:8 in
      let c = Csr.of_digraph g in
      let mem =
        let s = Cut.random rng ~n in
        fun v -> Cut.mem s v
      in
      let u = Prng.int rng n and v = Prng.int rng n in
      Csr.n c = Digraph.n g
      && Csr.m c = Digraph.m g
      && Csr.cut_weight c mem = Digraph.cut_weight g mem
      && Csr.weight c u v = Digraph.weight g u v)

let prop_csr_reverse_matches_digraph_reverse =
  QCheck.Test.make ~name:"CSR reverse = digraph reverse" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 3 + Prng.int rng 10 in
      let g = random_int_digraph rng ~n ~p:0.35 ~max_weight:8 in
      let cr = Csr.reverse (Csr.of_digraph g) in
      let gr = Digraph.reverse g in
      let mem =
        let s = Cut.random rng ~n in
        fun v -> Cut.mem s v
      in
      Csr.cut_weight cr mem = Digraph.cut_weight gr mem)

let prop_csr_of_ugraph_cut_value =
  QCheck.Test.make ~name:"CSR of ugraph: cut values match" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 4 + Prng.int rng 12 in
      let g0 = Generators.erdos_renyi_connected rng ~n ~p:0.3 in
      let g = Generators.random_multigraph_weights rng g0 ~max_weight:9 in
      let c = Csr.of_ugraph g in
      let s = Cut.random rng ~n in
      Csr.cut_value c s = Ugraph.cut_value g s)

(* The freeze sorts nothing, so its row order is pinned directly: every
   out-row and in-row, read back through [iter_out]/[in_rows], is the
   hashtable row sorted by endpoint — for [of_digraph] after deletions
   reshaped the hashtables, and for [of_ugraph] of the projection. *)
let prop_csr_rows_sorted =
  QCheck.Test.make ~name:"CSR rows are the sorted hashtable rows" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int rng 14 in
      let g = random_int_digraph rng ~n ~p:0.4 ~max_weight:8 in
      Array.iter
        (fun (u, v, _) -> if Prng.int rng 4 = 0 then Digraph.set_edge g u v 0.0)
        (Digraph.edges g);
      let row iter u =
        let r = ref [] in
        iter u (fun v w -> r := (v, w) :: !r);
        !r
      in
      let same csr_iter iter u =
        List.rev (row csr_iter u) = List.sort compare (row iter u)
      in
      let iter_rows (r : Csr.rows) u f =
        for i = r.off.(u) to r.off.(u + 1) - 1 do f r.dst.(i) r.w.(i) done
      in
      let c = Csr.of_digraph g in
      let ug = Ugraph.of_digraph g in
      let cu = Csr.of_ugraph ug in
      let gr = Digraph.reverse g in
      List.for_all
        (fun u ->
          same (Csr.iter_out c) (Digraph.iter_out g) u
          && same (iter_rows (Csr.in_rows c)) (Digraph.iter_out gr) u
          && same (Csr.iter_out cu) (Ugraph.iter_neighbors ug) u
          && same (iter_rows (Csr.in_rows cu)) (Ugraph.iter_neighbors ug) u)
        (List.init n Fun.id))

(* Incremental maintenance: after any flip sequence, seed + Σ deltas equals
   a from-scratch evaluation, bit for bit (integer weights). *)
let prop_csr_cut_delta_flip_sequence =
  QCheck.Test.make ~name:"CSR cut_delta tracks flips exactly" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 3 + Prng.int rng 10 in
      let g = random_int_digraph rng ~n ~p:0.4 ~max_weight:8 in
      let c = Csr.of_digraph g in
      let side = Array.init n (fun _ -> Prng.bool rng) in
      let cur = ref (Csr.cut_weight c (fun v -> side.(v))) in
      let ok = ref true in
      for _ = 1 to 30 do
        let x = Prng.int rng n in
        cur := !cur +. Csr.cut_delta c side x;
        side.(x) <- not side.(x);
        if !cur <> Csr.cut_weight c (fun v -> side.(v)) then ok := false
      done;
      !ok)

(* --- Cut --- *)

let test_cut_construction () =
  let c = Cut.of_indices ~n:5 [ 1; 3 ] in
  Alcotest.(check int) "cardinal" 2 (Cut.cardinal c);
  Alcotest.(check bool) "mem 1" true (Cut.mem c 1);
  Alcotest.(check bool) "mem 0" false (Cut.mem c 0);
  Alcotest.(check (list int)) "to_list" [ 1; 3 ] (Cut.to_list c)

let test_cut_complement () =
  let c = Cut.of_indices ~n:4 [ 0 ] in
  let cc = Cut.complement c in
  Alcotest.(check (list int)) "complement" [ 1; 2; 3 ] (Cut.to_list cc);
  Alcotest.(check bool) "proper" true (Cut.is_proper c);
  Alcotest.(check bool) "full not proper" false
    (Cut.is_proper (Cut.of_indices ~n:3 [ 0; 1; 2 ]))

let test_cut_directed_values () =
  let g = Digraph.of_edges 3 [ (0, 1, 2.0); (1, 0, 5.0) ] in
  let c = Cut.of_indices ~n:3 [ 0 ] in
  check_float "forward" 2.0 (Cut.value g c);
  check_float "backward" 5.0 (Cut.value_rev g c)

let test_cut_random_of_size () =
  let rng = Prng.create 1 in
  for _ = 1 to 20 do
    let c = Cut.random_of_size rng ~n:10 ~k:4 in
    Alcotest.(check int) "size" 4 (Cut.cardinal c)
  done

let test_cut_random_proper () =
  let rng = Prng.create 2 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "proper" true (Cut.is_proper (Cut.random rng ~n:3))
  done

(* --- Balance --- *)

let test_balance_of_cut () =
  let g = Digraph.of_edges 2 [ (0, 1, 6.0); (1, 0, 2.0) ] in
  let c = Cut.of_indices ~n:2 [ 0 ] in
  check_float "ratio" 3.0 (Balance.of_cut g c);
  check_float "inverse ratio" (1.0 /. 3.0) (Balance.of_cut g (Cut.complement c))

let test_balance_exact_simple () =
  let g = Digraph.of_edges 2 [ (0, 1, 6.0); (1, 0, 2.0) ] in
  check_float "exact" 3.0 (Balance.exact g)

let test_balance_exact_cycle () =
  (* Directed triangle: each singleton cut has 1 out / 1 in -> balanced,
     but e.g. S = {0,1} also has 1/1. Perfectly 1-balanced. *)
  let g = Digraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0); (2, 0, 1.0) ] in
  check_float "eulerian cycle is 1-balanced" 1.0 (Balance.exact g)

let test_balance_edgewise_bounds_exact () =
  let rng = Prng.create 9 in
  for _ = 1 to 10 do
    let g = Generators.balanced_digraph rng ~n:8 ~p:0.3 ~beta:4.0 ~max_weight:3.0 in
    let exact = Balance.exact g in
    let edgewise = Balance.edgewise_upper_bound g in
    Alcotest.(check bool) "exact <= edgewise" true (exact <= edgewise +. 1e-9);
    Alcotest.(check bool) "edgewise <= beta" true (edgewise <= 4.0 +. 1e-9)
  done

let test_balance_sampled_lower_bound () =
  let rng = Prng.create 10 in
  let g = Digraph.of_edges 2 [ (0, 1, 6.0); (1, 0, 2.0) ] in
  let lb = Balance.sampled_lower_bound rng ~trials:10 g in
  check_float "finds the 2-node cut" 3.0 lb

(* The loop [Balance.sampled_lower_bound] ran before its singleton pass
   read each vertex's arcs once: two n-vertex cuts per vertex, each summed
   by [Cut.value]/[value_rev], then fresh random cuts. *)
let cut_loop_lower_bound rng ~trials g =
  let nv = Digraph.n g in
  if nv < 2 then 1.0
  else begin
    let best = ref 0.0 in
    let consider c = best := Float.max !best (Balance.of_cut g c) in
    for v = 0 to nv - 1 do
      let s = Cut.of_indices ~n:nv [ v ] in
      consider s;
      consider (Cut.complement s)
    done;
    for _ = 1 to trials do
      consider (Cut.random rng ~n:nv)
    done;
    !best
  end

(* Fractional weights, and deletions that reshape the hashtables, so a sum
   added in another order shows in the last bits. *)
let prop_sampled_lower_bound_matches_cut_loop =
  QCheck.Test.make ~name:"balance: sampled lower bound = per-cut loop, bit for bit"
    ~count:300
    QCheck.(pair (int_bound 100000) (int_range 0 3))
    (fun (seed, trials) ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 10 in
      let g = Digraph.create n in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Prng.bernoulli rng 0.5 then
            Digraph.add_edge g u v (0.1 +. Prng.float rng 5.0)
        done
      done;
      Array.iter
        (fun (u, v, _) -> if Prng.int rng 4 = 0 then Digraph.set_edge g u v 0.0)
        (Digraph.edges g);
      let draws = Prng.int rng 1_000_000 in
      Int64.equal
        (Int64.bits_of_float
           (Balance.sampled_lower_bound (Prng.create draws) ~trials g))
        (Int64.bits_of_float (cut_loop_lower_bound (Prng.create draws) ~trials g)))

let test_balance_infinite () =
  let g = Digraph.of_edges 2 [ (0, 1, 1.0) ] in
  check_float "one-way edge" infinity (Balance.edgewise_upper_bound g)

(* --- Generators --- *)

let test_er_connected () =
  let rng = Prng.create 20 in
  for _ = 1 to 10 do
    let g = Generators.erdos_renyi_connected rng ~n:20 ~p:0.05 in
    Alcotest.(check bool) "connected" true (Traversal.is_connected g)
  done

let test_gnm_edge_count () =
  let rng = Prng.create 21 in
  let g = Generators.gnm rng ~n:10 ~m:15 in
  Alcotest.(check int) "m" 15 (Ugraph.m g)

let test_balanced_digraph_strongly_connected () =
  let rng = Prng.create 22 in
  let g = Generators.balanced_digraph rng ~n:12 ~p:0.1 ~beta:2.0 ~max_weight:1.0 in
  Alcotest.(check bool) "strongly connected" true (Traversal.is_strongly_connected g)

let test_complete_bipartite () =
  let g =
    Generators.complete_bipartite_digraph ~left:3 ~right:2
      ~fwd:(fun i j -> float_of_int ((i * 10) + j + 1))
      ~bwd:(fun _ _ -> 0.5)
  in
  Alcotest.(check int) "n" 5 (Digraph.n g);
  Alcotest.(check int) "m" 12 (Digraph.m g);
  check_float "fwd weight" 12.0 (Digraph.weight g 1 4);
  check_float "bwd weight" 0.5 (Digraph.weight g 4 1)

let test_planted_mincut () =
  let rng = Prng.create 23 in
  let g = Generators.planted_mincut rng ~block:12 ~k:3 ~p_inner:0.7 in
  Alcotest.(check int) "n" 24 (Ugraph.n g);
  let cross = Cut.of_mem ~n:24 (fun v -> v < 12) in
  check_float "cross cut = k" 3.0 (Ugraph.cut_value g cross)

let test_cycle_path_complete () =
  let c = Generators.cycle ~n:5 in
  Alcotest.(check int) "cycle m" 5 (Ugraph.m c);
  let p = Generators.path ~n:5 in
  Alcotest.(check int) "path m" 4 (Ugraph.m p);
  let k = Generators.complete ~n:5 in
  Alcotest.(check int) "complete m" 10 (Ugraph.m k)

let test_hypercube () =
  let g = Generators.hypercube ~dim:4 in
  Alcotest.(check int) "n" 16 (Ugraph.n g);
  Alcotest.(check int) "m" 32 (Ugraph.m g);
  for v = 0 to 15 do
    Alcotest.(check int) "regular" 4 (Ugraph.degree g v)
  done;
  (* Q_d has edge connectivity d. *)
  check_float "connectivity" 4.0 (Dcs_mincut.Dinic.edge_connectivity g)

let test_grid () =
  let g = Generators.grid ~rows:3 ~cols:4 in
  Alcotest.(check int) "n" 12 (Ugraph.n g);
  Alcotest.(check int) "m" 17 (Ugraph.m g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check int) "corner degree" 2 (Ugraph.degree g 0)

let test_preferential_attachment () =
  let rng = Prng.create 31 in
  let g = Generators.preferential_attachment rng ~n:60 ~m_per_node:3 in
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (* hubs exist: max degree well above the attachment parameter *)
  let maxdeg = ref 0 in
  for v = 0 to 59 do
    maxdeg := max !maxdeg (Ugraph.degree g v)
  done;
  Alcotest.(check bool) "has a hub" true (!maxdeg >= 6)

let test_random_regular () =
  let rng = Prng.create 32 in
  let g = Generators.random_regular rng ~n:20 ~degree:4 in
  for v = 0 to 19 do
    Alcotest.(check int) "regular" 4 (Ugraph.degree g v)
  done

let test_random_regular_validation () =
  let rng = Prng.create 33 in
  Alcotest.check_raises "odd product"
    (Invalid_argument "Generators.random_regular: n * degree must be even")
    (fun () -> ignore (Generators.random_regular rng ~n:5 ~degree:3))

(* --- Eulerian / circulations --- *)

let test_circulation_detection () =
  let cycle3 = Digraph.of_edges 3 [ (0, 1, 2.0); (1, 2, 2.0); (2, 0, 2.0) ] in
  Alcotest.(check bool) "cycle is circulation" true (Eulerian.is_circulation cycle3);
  let path = Digraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  Alcotest.(check bool) "path is not" false (Eulerian.is_circulation path)

let test_random_circulation_balanced () =
  let rng = Prng.create 40 in
  for _ = 1 to 10 do
    let g = Eulerian.random_circulation rng ~n:10 ~cycles:5 ~max_weight:4.0 in
    Alcotest.(check bool) "is circulation" true (Eulerian.is_circulation g)
  done

let test_circulation_is_one_balanced () =
  (* Flow conservation: every cut has equal weight in both directions. *)
  let rng = Prng.create 41 in
  let g = Eulerian.random_circulation rng ~n:12 ~cycles:6 ~max_weight:3.0 in
  for _ = 1 to 30 do
    let c = Cut.random rng ~n:12 in
    check_float "w(S,S̄) = w(S̄,S)" (Cut.value g c) (Cut.value_rev g c)
  done

let test_make_circulation () =
  let rng = Prng.create 42 in
  for _ = 1 to 10 do
    let g = Generators.random_digraph rng ~n:9 ~p:0.3 ~max_weight:5.0 in
    let h = Eulerian.make_circulation g in
    Alcotest.(check bool) "balanced" true (Eulerian.is_circulation h);
    (* original edges preserved (weights only grow on the fixing cycle) *)
    Digraph.iter_edges g (fun u v w ->
        Alcotest.(check bool) "kept" true (Digraph.weight h u v >= w -. 1e-9))
  done

let test_make_circulation_idempotent_on_balanced () =
  let g = Digraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0); (2, 0, 1.0) ] in
  let h = Eulerian.make_circulation g in
  Alcotest.(check bool) "unchanged" true (Digraph.equal g h)

(* --- Traversal --- *)

let test_bfs_unreachable () =
  let g = Ugraph.of_edges 4 [ (0, 1, 1.0) ] in
  let comp = Traversal.connected_components g in
  Alcotest.(check bool) "reachable" true (comp.(1) = comp.(0));
  Alcotest.(check bool) "unreachable" true (comp.(3) <> comp.(0))

let test_components () =
  let g = Ugraph.of_edges 5 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  Alcotest.(check int) "3 components" 3 (Traversal.component_count g);
  Alcotest.(check bool) "not connected" false (Traversal.is_connected g)

let test_strong_connectivity () =
  let cycle = Digraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0); (2, 0, 1.0) ] in
  Alcotest.(check bool) "cycle strong" true (Traversal.is_strongly_connected cycle);
  let path = Digraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  Alcotest.(check bool) "path not strong" false (Traversal.is_strongly_connected path)

(* --- Serialize --- *)

let test_serialize_ugraph_roundtrip_small () =
  let g = Ugraph.of_edges 4 [ (0, 1, 1.5); (2, 3, 0.25) ] in
  let g' = Result.get_ok (Serialize.ugraph_of_string (Serialize.ugraph_to_string g)) in
  Alcotest.(check bool) "equal" true (Ugraph.equal g g')

let test_serialize_digraph_roundtrip_small () =
  let g = Digraph.of_edges 3 [ (0, 1, 3.14159); (1, 0, 2.71828) ] in
  let g' = Result.get_ok (Serialize.digraph_of_string (Serialize.digraph_to_string g)) in
  Alcotest.(check bool) "equal" true (Digraph.equal g g')

let test_serialize_empty_graph () =
  let g = Ugraph.create 5 in
  let g' = Result.get_ok (Serialize.ugraph_of_string (Serialize.ugraph_to_string g)) in
  Alcotest.(check int) "n preserved" 5 (Ugraph.n g');
  Alcotest.(check int) "no edges" 0 (Ugraph.m g')

(* Each malformed file is an [Error] naming its line, never a silent
   truncation or an exception. The stray comma used to end the input early
   (Stoer-Wagner then answered 2, not 5). *)
let test_serialize_rejects_malformed () =
  List.iter
    (fun (input, line) ->
      match Serialize.ugraph_of_string input with
      | Ok _ -> Alcotest.failf "%S: accepted" input
      | Error e ->
          Alcotest.(check bool) (Printf.sprintf "%S: %s" input e) true
            (String.starts_with ~prefix:(Printf.sprintf "line %d: " line) e))
    [
      ("3\n0 1 2\n1 2 3,\n0 2 4\n", 3); ("3\n0 5 4\n", 2); ("3\n0 1 -4\n", 2);
      ("3\n1 1 4\n", 2); ("3\n0 1 nan\n", 2); ("3\n\n0 1\n", 3); ("-3\n", 1);
      ("3\n0 1 2 1 2 3\n", 2);
    ];
  Alcotest.(check bool) "empty input" true (Result.is_error (Serialize.ugraph_of_string ""));
  Alcotest.(check bool) "merged weight overflows" true
    (Result.is_error (Serialize.ugraph_of_string "2\n0 1 1e308\n1 0 1e308\n"));
  Alcotest.(check (float 0.0)) "blank lines, tabs, CRLF" 5.0
    (Ugraph.total_weight (Result.get_ok (Serialize.ugraph_of_string "\n3\r\n0\t1  2\n\n1 2 3\n")))

let prop_serialize_never_raises =
  QCheck.Test.make ~name:"edge-list parsers return a result on any bytes" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 40) (Gen.oneofl [ '0'; '1'; '2'; '-'; '.'; ' '; '\n'; 'e'; 'x'; ',' ]))
    (fun s ->
      ignore (Serialize.ugraph_of_string s);
      ignore (Serialize.digraph_of_string ("3\n" ^ s));
      true)

let prop_serialize_roundtrip =
  QCheck.Test.make ~name:"serialization round-trips exactly" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Generators.random_digraph rng ~n:12 ~p:0.3 ~max_weight:5.0 in
      Digraph.equal g (Result.get_ok (Serialize.digraph_of_string (Serialize.digraph_to_string g))))

(* qcheck properties *)

let prop_cut_value_additive_over_disjoint_graphs =
  QCheck.Test.make ~name:"cut value additive over edge-disjoint union" ~count:50
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 10 in
      let g1 = Generators.random_digraph rng ~n ~p:0.3 ~max_weight:2.0 in
      let g2 = Generators.random_digraph rng ~n ~p:0.3 ~max_weight:2.0 in
      let merged = Digraph.copy g1 in
      Digraph.iter_edges g2 (fun u v w -> Digraph.add_edge merged u v w);
      let c = Cut.random rng ~n in
      Float.abs (Cut.value merged c -. (Cut.value g1 c +. Cut.value g2 c)) < 1e-6)

let prop_cut_fwd_plus_bwd_is_symmetrized =
  QCheck.Test.make ~name:"w(S,S̄) + w(S̄,S) = undirected cut of projection" ~count:50
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 9 in
      let g = Generators.random_digraph rng ~n ~p:0.4 ~max_weight:3.0 in
      let c = Cut.random rng ~n in
      let sym = Ugraph.of_digraph g in
      Float.abs (Cut.value g c +. Cut.value_rev g c -. Ugraph.cut_value sym c) < 1e-6)

let prop_symmetric_digraph_is_1_balanced =
  QCheck.Test.make ~name:"symmetric digraphs are exactly 1-balanced" ~count:25
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Generators.random_digraph rng ~n:8 ~p:0.4 ~max_weight:3.0 in
      let s = Digraph.create 8 in
      Digraph.iter_edges g (fun u v w ->
          Digraph.add_edge s u v w;
          Digraph.add_edge s v u w);
      Digraph.m s = 0 || Float.abs (Balance.exact s -. 1.0) < 1e-9)

let prop_cut_bounded_by_total_weight =
  QCheck.Test.make ~name:"w(S,S̄) + w(S̄,S) <= total weight" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Generators.random_digraph rng ~n:10 ~p:0.4 ~max_weight:3.0 in
      let c = Cut.random rng ~n:10 in
      Cut.value g c +. Cut.value_rev g c <= Digraph.total_weight g +. 1e-9)

let prop_complement_involution =
  QCheck.Test.make ~name:"cut complement is an involution" ~count:50
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 14 in
      let c = Cut.random rng ~n in
      let cc = Cut.complement (Cut.complement c) in
      Cut.equal c cc
      && Cut.cardinal c + Cut.cardinal (Cut.complement c) = n
      && Cut.is_proper (Cut.complement c))

(* The crossing/internal partition identity: on any digraph,
   w(S,S̄) + w(S̄,S) + w(S,S) + w(S̄,S̄) = total weight. *)
let prop_cut_partition_identity =
  QCheck.Test.make ~name:"crossing + internal weight = total weight" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 9 in
      let g = Generators.random_digraph rng ~n ~p:0.4 ~max_weight:5.0 in
      let c = Cut.random rng ~n in
      let internal = ref 0.0 in
      Digraph.iter_edges g (fun u v w ->
          if Cut.mem c u = Cut.mem c v then internal := !internal +. w);
      Float.abs
        (Cut.value g c +. Cut.value_rev g c +. !internal
        -. Digraph.total_weight g)
      < 1e-9)

(* On the complete unit digraph the identity has a closed form: both
   directions carry exactly |S|·|S̄|, so the crossing weight is
   2|S|(n-|S|) = n(n-1) - |S|(|S|-1) - |S̄|(|S̄|-1), i.e. total weight
   minus the two internal cliques. *)
let prop_complete_digraph_crossing_closed_form =
  QCheck.Test.make ~name:"complete digraph: value + value_rev closed form"
    ~count:30
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 3 + Prng.int rng 8 in
      let g = Digraph.create n in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then Digraph.add_edge g u v 1.0
        done
      done;
      let c = Cut.random rng ~n in
      let k = Cut.cardinal c in
      let fk = float_of_int k and fr = float_of_int (n - k) in
      Float.abs (Cut.value g c -. (fk *. fr)) < 1e-9
      && Float.abs (Cut.value_rev g c -. (fk *. fr)) < 1e-9
      && Float.abs
           (Cut.value g c +. Cut.value_rev g c
           -. (Digraph.total_weight g
              -. (fk *. (fk -. 1.0))
              -. (fr *. (fr -. 1.0))))
         < 1e-9)

let prop_ugraph_serialize_roundtrip =
  QCheck.Test.make ~name:"ugraph serialization round-trips exactly" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g0 = Generators.erdos_renyi_connected rng ~n:11 ~p:0.3 in
      let g = Generators.random_multigraph_weights rng g0 ~max_weight:9 in
      Ugraph.equal g (Result.get_ok (Serialize.ugraph_of_string (Serialize.ugraph_to_string g))))

let prop_balance_of_complement_inverts =
  QCheck.Test.make ~name:"balance(S) * balance(S̄) = 1" ~count:50
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 8 in
      let g = Generators.balanced_digraph rng ~n ~p:0.3 ~beta:3.0 ~max_weight:2.0 in
      let c = Cut.random rng ~n in
      let b = Balance.of_cut g c and b' = Balance.of_cut g (Cut.complement c) in
      Float.abs ((b *. b') -. 1.0) < 1e-6)

let suite =
  [
    Alcotest.test_case "digraph: basics" `Quick test_digraph_basic;
    Alcotest.test_case "digraph: set/remove" `Quick test_digraph_set_remove;
    Alcotest.test_case "digraph: validation" `Quick test_digraph_rejects;
    Alcotest.test_case "digraph: degrees" `Quick test_digraph_degrees;
    Alcotest.test_case "digraph: reverse" `Quick test_digraph_reverse;
    Alcotest.test_case "digraph: copy independence" `Quick test_digraph_copy_independent;
    Alcotest.test_case "digraph: cut weights" `Quick test_digraph_cut_weight;
    Alcotest.test_case "digraph: total weight" `Quick test_digraph_total_weight;
    Alcotest.test_case "digraph: symmetrize" `Quick test_digraph_symmetrize;
    Alcotest.test_case "ugraph: basics" `Quick test_ugraph_basic;
    Alcotest.test_case "ugraph: validation" `Quick test_ugraph_rejects;
    Alcotest.test_case "ugraph: degree" `Quick test_ugraph_degree;
    Alcotest.test_case "ugraph: iter edges once" `Quick test_ugraph_iter_edges_once;
    Alcotest.test_case "ugraph: cut" `Quick test_ugraph_cut;
    Alcotest.test_case "ugraph: digraph roundtrip" `Quick test_ugraph_digraph_roundtrip;
    Alcotest.test_case "ugraph: cut matches symmetric digraph" `Quick test_ugraph_cut_matches_digraph_cut;
    Alcotest.test_case "ugraph: neighbor array sorted" `Quick test_neighbor_array_sorted;
    Alcotest.test_case "create: one word per vertex per table array" `Quick
      test_create_words_per_vertex;
    Alcotest.test_case "csr: basics" `Quick test_csr_basic;
    Alcotest.test_case "csr: rows sorted" `Quick test_csr_iter_sorted;
    Alcotest.test_case "csr: reverse" `Quick test_csr_reverse;
    Alcotest.test_case "csr: cut_delta hand example" `Quick test_csr_cut_delta_hand;
    Alcotest.test_case "csr: validation" `Quick test_csr_validation;
    Alcotest.test_case "cut: construction" `Quick test_cut_construction;
    Alcotest.test_case "cut: complement/proper" `Quick test_cut_complement;
    Alcotest.test_case "cut: directed values" `Quick test_cut_directed_values;
    Alcotest.test_case "cut: random of size" `Quick test_cut_random_of_size;
    Alcotest.test_case "cut: random proper" `Quick test_cut_random_proper;
    Alcotest.test_case "balance: of_cut" `Quick test_balance_of_cut;
    Alcotest.test_case "balance: exact 2-node" `Quick test_balance_exact_simple;
    Alcotest.test_case "balance: eulerian cycle" `Quick test_balance_exact_cycle;
    Alcotest.test_case "balance: edgewise bound" `Quick test_balance_edgewise_bounds_exact;
    Alcotest.test_case "balance: sampled lower bound" `Quick test_balance_sampled_lower_bound;
    Alcotest.test_case "balance: infinite" `Quick test_balance_infinite;
    Alcotest.test_case "generators: ER connected" `Quick test_er_connected;
    Alcotest.test_case "generators: gnm count" `Quick test_gnm_edge_count;
    Alcotest.test_case "generators: balanced strongly connected" `Quick test_balanced_digraph_strongly_connected;
    Alcotest.test_case "generators: complete bipartite" `Quick test_complete_bipartite;
    Alcotest.test_case "generators: planted mincut" `Quick test_planted_mincut;
    Alcotest.test_case "generators: cycle/path/complete" `Quick test_cycle_path_complete;
    Alcotest.test_case "generators: hypercube" `Quick test_hypercube;
    Alcotest.test_case "generators: grid" `Quick test_grid;
    Alcotest.test_case "generators: preferential attachment" `Quick test_preferential_attachment;
    Alcotest.test_case "generators: random regular" `Quick test_random_regular;
    Alcotest.test_case "generators: regular validation" `Quick test_random_regular_validation;
    Alcotest.test_case "eulerian: detection" `Quick test_circulation_detection;
    Alcotest.test_case "eulerian: random circulation" `Quick test_random_circulation_balanced;
    Alcotest.test_case "eulerian: 1-balanced cuts" `Quick test_circulation_is_one_balanced;
    Alcotest.test_case "eulerian: make circulation" `Quick test_make_circulation;
    Alcotest.test_case "eulerian: idempotent" `Quick test_make_circulation_idempotent_on_balanced;
    Alcotest.test_case "traversal: unreachable" `Quick test_bfs_unreachable;
    Alcotest.test_case "traversal: components" `Quick test_components;
    Alcotest.test_case "traversal: strong connectivity" `Quick test_strong_connectivity;
    Alcotest.test_case "serialize: ugraph roundtrip" `Quick test_serialize_ugraph_roundtrip_small;
    Alcotest.test_case "serialize: digraph roundtrip" `Quick test_serialize_digraph_roundtrip_small;
    Alcotest.test_case "serialize: empty" `Quick test_serialize_empty_graph;
    Alcotest.test_case "serialize: malformed input is a typed error" `Quick
      test_serialize_rejects_malformed;
    QCheck_alcotest.to_alcotest prop_serialize_never_raises;
    QCheck_alcotest.to_alcotest prop_serialize_roundtrip;
    QCheck_alcotest.to_alcotest prop_complement_involution;
    QCheck_alcotest.to_alcotest prop_cut_partition_identity;
    QCheck_alcotest.to_alcotest prop_complete_digraph_crossing_closed_form;
    QCheck_alcotest.to_alcotest prop_ugraph_serialize_roundtrip;
    QCheck_alcotest.to_alcotest prop_cut_value_additive_over_disjoint_graphs;
    QCheck_alcotest.to_alcotest prop_cut_fwd_plus_bwd_is_symmetrized;
    QCheck_alcotest.to_alcotest prop_symmetric_digraph_is_1_balanced;
    QCheck_alcotest.to_alcotest prop_sampled_lower_bound_matches_cut_loop;
    QCheck_alcotest.to_alcotest prop_cut_bounded_by_total_weight;
    QCheck_alcotest.to_alcotest prop_balance_of_complement_inverts;
    QCheck_alcotest.to_alcotest prop_csr_matches_digraph;
    QCheck_alcotest.to_alcotest prop_csr_reverse_matches_digraph_reverse;
    QCheck_alcotest.to_alcotest prop_csr_of_ugraph_cut_value;
    QCheck_alcotest.to_alcotest prop_csr_cut_delta_flip_sequence;
    QCheck_alcotest.to_alcotest prop_csr_rows_sorted;
  ]
