open Dcs

let check_float = Alcotest.(check (float 1e-9))

(* --- Stoer–Wagner --- *)

let test_sw_two_nodes () =
  let g = Ugraph.of_edges 2 [ (0, 1, 3.5) ] in
  let v, c = Stoer_wagner.mincut g in
  check_float "value" 3.5 v;
  Alcotest.(check bool) "proper" true (Cut.is_proper c)

let test_sw_path () =
  (* Path with a light middle edge. *)
  let g = Ugraph.of_edges 4 [ (0, 1, 5.0); (1, 2, 1.0); (2, 3, 5.0) ] in
  let v, c = Stoer_wagner.mincut g in
  check_float "value" 1.0 v;
  check_float "witness value" 1.0 (Ugraph.cut_value g c)

let test_sw_cycle () =
  let g = Generators.cycle ~n:7 in
  let v, _ = Stoer_wagner.mincut g in
  check_float "cycle mincut = 2" 2.0 v

let test_sw_complete () =
  let g = Generators.complete ~n:6 in
  let v, c = Stoer_wagner.mincut g in
  check_float "K6 mincut = 5" 5.0 v;
  Alcotest.(check int) "singleton side" 1
    (min (Cut.cardinal c) (Cut.cardinal (Cut.complement c)))

let test_sw_disconnected () =
  let g = Ugraph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  let v, _ = Stoer_wagner.mincut g in
  check_float "disconnected" 0.0 v

let test_sw_weighted_planted () =
  let rng = Prng.create 5 in
  let g = Generators.planted_mincut rng ~block:15 ~k:4 ~p_inner:0.7 in
  let v, c = Stoer_wagner.mincut g in
  check_float "planted k" 4.0 v;
  check_float "witness matches" v (Ugraph.cut_value g c)

let test_sw_matches_brute () =
  let rng = Prng.create 6 in
  for _ = 1 to 25 do
    let g = Generators.erdos_renyi_connected rng ~n:9 ~p:0.3 in
    let g = Generators.random_multigraph_weights rng g ~max_weight:5 in
    let sw, swc = Stoer_wagner.mincut g in
    let bf, _ = Brute.mincut_ugraph g in
    check_float "sw = brute" bf sw;
    check_float "witness = value" sw (Ugraph.cut_value g swc)
  done

(* A graph too large for an n×n matrix (10⁸ words at n = 10⁴) is solved
   on the frozen rows: every word the call allocates, minor or major, is
   O(n + m) — pinned at 64 words per vertex and edge, ~3x the 0.58 M a
   run takes. *)
let test_sw_large_sparse () =
  let g = Generators.grid ~rows:100 ~cols:100 in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  let v, c = Stoer_wagner.mincut g in
  let used = words () -. before in
  check_float "grid min cut" 2.0 v;
  check_float "witness" 2.0 (Ugraph.cut_value g c);
  let bound = 64.0 *. float_of_int (Ugraph.n g + Ugraph.m g) in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f words <= %.0f" used bound)
    true (used <= bound)

(* --- Dinic --- *)

let test_dinic_simple_st () =
  (* 0 -> 1 cap 3, 0 -> 2 cap 2, 1 -> 3 cap 2, 2 -> 3 cap 3: max flow 4 *)
  let g =
    Digraph.of_edges 4 [ (0, 1, 3.0); (0, 2, 2.0); (1, 3, 2.0); (2, 3, 3.0) ]
  in
  let net = Dinic.of_digraph g in
  check_float "maxflow" 4.0 (Dinic.maxflow net ~s:0 ~t:3)

let test_dinic_bottleneck () =
  let g = Digraph.of_edges 3 [ (0, 1, 10.0); (1, 2, 1.5) ] in
  let net = Dinic.of_digraph g in
  check_float "bottleneck" 1.5 (Dinic.maxflow net ~s:0 ~t:2)

let test_dinic_no_path () =
  let g = Digraph.of_edges 3 [ (1, 0, 1.0) ] in
  let net = Dinic.of_digraph g in
  check_float "no path" 0.0 (Dinic.maxflow net ~s:0 ~t:1)

let test_dinic_repeated_runs_reset () =
  let g = Digraph.of_edges 3 [ (0, 1, 2.0); (1, 2, 2.0) ] in
  let net = Dinic.of_digraph g in
  check_float "first" 2.0 (Dinic.maxflow net ~s:0 ~t:2);
  check_float "second identical" 2.0 (Dinic.maxflow net ~s:0 ~t:2)

let test_dinic_mincut_side () =
  let g = Digraph.of_edges 4 [ (0, 1, 5.0); (1, 2, 1.0); (2, 3, 5.0) ] in
  let net = Dinic.of_digraph g in
  let f, side = Dinic.mincut_side net ~s:0 ~t:3 in
  check_float "flow" 1.0 f;
  Alcotest.(check bool) "s in side" true (Cut.mem side 0);
  Alcotest.(check bool) "t not in side" false (Cut.mem side 3);
  (* The side is a minimum s-t cut in the capacity graph. *)
  check_float "cut value = flow" f (Cut.value g side)

let test_dinic_maxflow_equals_brute_st_cut () =
  let rng = Prng.create 7 in
  for _ = 1 to 15 do
    let g = Generators.random_digraph rng ~n:7 ~p:0.4 ~max_weight:3.0 in
    let net = Dinic.of_digraph g in
    let flow = Dinic.maxflow net ~s:0 ~t:6 in
    (* brute-force min s-t cut *)
    let best = ref infinity in
    for mask = 0 to (1 lsl 5) - 1 do
      let mem v = v = 0 || (v < 6 && (mask lsr (v - 1)) land 1 = 1) in
      let c = Cut.of_mem ~n:7 mem in
      best := Float.min !best (Cut.value g c)
    done;
    check_float "maxflow = min st cut" !best flow
  done

let test_edge_connectivity_cycle () =
  check_float "cycle" 2.0 (Dinic.edge_connectivity (Generators.cycle ~n:6))

let test_edge_connectivity_complete () =
  check_float "K5" 4.0 (Dinic.edge_connectivity (Generators.complete ~n:5))

let test_edge_connectivity_matches_sw () =
  let rng = Prng.create 8 in
  for _ = 1 to 10 do
    let g = Generators.erdos_renyi_connected rng ~n:10 ~p:0.3 in
    check_float "lambda = sw" (Stoer_wagner.mincut_value g) (Dinic.edge_connectivity g)
  done

let test_edge_disjoint_paths () =
  let g = Generators.cycle ~n:8 in
  Alcotest.(check int) "cycle: 2 paths" 2 (Dinic.edge_disjoint_paths g ~s:0 ~t:4);
  let k = Generators.complete ~n:5 in
  Alcotest.(check int) "K5: 4 paths" 4 (Dinic.edge_disjoint_paths k ~s:0 ~t:3)

let digest h xs = List.fold_left (fun h x -> Prng.mix64 (Int64.logxor h x)) h xs
let bits = Int64.bits_of_float

(* Golden pins over fractional weights, where the augmenting-path order
   decides the low bits of every flow: a digest of maxflow with and
   without a limit and of the mincut_side value and side for every
   ordered pair, on a ugraph and a digraph, plus edge_connectivity and a
   Gomory–Hu tree. *)
let test_dinic_golden () =
  let rng = Prng.create 5151 in
  let g0 = Generators.erdos_renyi_connected rng ~n:18 ~p:0.3 in
  let ug = Generators.random_multigraph_weights rng g0 ~max_weight:4 in
  Array.iter
    (fun (u, v, w) ->
      if (u + (2 * v)) mod 3 = 0 then
        Ugraph.set_edge ug u v ((w *. 0.6) +. 0.05))
    (Ugraph.edges ug);
  let dg = Generators.random_digraph rng ~n:14 ~p:0.3 ~max_weight:3.0 in
  let flows net n =
    let h = ref 0L in
    for s = 0 to n - 1 do
      for t = 0 to n - 1 do
        if s <> t then begin
          let f = Dinic.maxflow net ~s ~t in
          let capped = Dinic.maxflow ~limit:2.5 net ~s ~t in
          let v, side = Dinic.mincut_side net ~s ~t in
          h :=
            digest !h
              ([ bits f; bits capped; bits v ]
              @ List.map Int64.of_int (Cut.to_list side))
        end
      done
    done;
    !h
  in
  Alcotest.(check int64) "ugraph flows" 2899859581484991093L
    (flows (Dinic.of_ugraph ug) 18);
  Alcotest.(check int64) "digraph flows" 2010826768322305679L
    (flows (Dinic.of_digraph dg) 14);
  Alcotest.(check int64) "edge connectivity" 4617596992938311680L
    (bits (Dinic.edge_connectivity ug));
  Alcotest.(check int64) "gomory-hu tree" 8807062766248076965L
    (List.fold_left
       (fun h (c, p, f) -> digest h [ Int64.of_int c; Int64.of_int p; bits f ])
       0L
       (Gomory_hu.tree_edges (Gomory_hu.build ug)))

let test_dinic_rejects_bad_vertices () =
  let g = Digraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ] in
  let net = Dinic.of_digraph g in
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  raises "Dinic.maxflow: vertex 7" (fun () ->
      ignore (Dinic.maxflow net ~s:0 ~t:7));
  raises "Dinic.maxflow: vertex -1" (fun () ->
      ignore (Dinic.maxflow ~limit:1.0 net ~s:(-1) ~t:3));
  raises "Dinic.mincut_side: vertex 7" (fun () ->
      ignore (Dinic.mincut_side net ~s:0 ~t:7));
  raises "Dinic.mincut_side: vertex -1" (fun () ->
      ignore (Dinic.mincut_side net ~s:(-1) ~t:3));
  raises "Dinic.edge_disjoint_paths: vertex 4" (fun () ->
      ignore (Dinic.edge_disjoint_paths (Generators.path ~n:4) ~s:0 ~t:4));
  raises "Dinic.maxflow: s = t" (fun () -> ignore (Dinic.maxflow net ~s:2 ~t:2));
  check_float "network still usable" 1.0 (Dinic.maxflow net ~s:0 ~t:3)

(* Flows on a reused network allocate only boxed floats (the optional
   limit, the result, one per augmenting path): the BFS queue and the
   augmenting walk's arc stack come with the network. Capped flows on
   the NI certificate of a planted two-block graph, as the connectivity
   estimator runs them. *)
let test_dinic_maxflow_allocation () =
  let rng = Prng.create 128 in
  let g0 = Generators.planted_mincut rng ~block:64 ~k:2 ~p_inner:0.6 in
  let g = Generators.random_multigraph_weights rng g0 ~max_weight:6 in
  let cert = Strength.certificate (Strength.compute ~max_rounds:8 g) g in
  let net = Dinic.of_csr (Csr.of_ugraph cert) in
  let pairs = Ugraph.edges g in
  let flows = 32 in
  let before = Gc.minor_words () in
  for k = 0 to flows - 1 do
    let u, v, _ = pairs.(k * 37 mod Array.length pairs) in
    ignore (Dinic.maxflow ~limit:300.0 net ~s:u ~t:v)
  done;
  let per_flow = (Gc.minor_words () -. before) /. float_of_int flows in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per flow < 256" per_flow)
    true (per_flow < 256.0)

(* --- Karger --- *)

let test_karger_run_once_upper_bound () =
  let rng = Prng.create 9 in
  let g = Generators.planted_mincut rng ~block:10 ~k:2 ~p_inner:0.8 in
  let exact = Stoer_wagner.mincut_value g in
  for _ = 1 to 20 do
    let v, c = Karger.run_once rng g in
    Alcotest.(check bool) "upper bound" true (v >= exact -. 1e-9);
    check_float "witness consistent" v (Ugraph.cut_value g c)
  done

let test_karger_finds_planted () =
  let rng = Prng.create 10 in
  let g = Generators.planted_mincut rng ~block:10 ~k:2 ~p_inner:0.8 in
  let v, _ = Karger.mincut rng ~trials:150 g in
  check_float "finds min" (Stoer_wagner.mincut_value g) v

let test_karger_candidates_sorted_and_bounded () =
  let rng = Prng.create 11 in
  let g = Generators.planted_mincut rng ~block:8 ~k:3 ~p_inner:0.8 in
  let cands = Karger.candidate_cuts rng ~trials:100 ~factor:2.0 g in
  Alcotest.(check bool) "nonempty" true (cands <> []);
  let values = List.map fst cands in
  let best = List.hd values in
  List.iter
    (fun v -> Alcotest.(check bool) "within factor" true (v <= (2.0 *. best) +. 1e-9))
    values;
  let rec sorted = function
    | a :: b :: tl -> a <= b +. 1e-9 && sorted (b :: tl)
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted values)

let test_karger_candidates_distinct () =
  let rng = Prng.create 12 in
  let g = Generators.cycle ~n:6 in
  let cands = Karger.candidate_cuts rng ~trials:300 ~factor:1.0 g in
  (* All min cuts of a cycle have value 2; check distinctness via values/cuts *)
  let keys =
    List.map
      (fun (_, c) ->
        let c = if Cut.mem c 0 then c else Cut.complement c in
        Cut.to_list c)
      cands
  in
  let sorted = List.sort_uniq compare keys in
  Alcotest.(check int) "no duplicate cuts" (List.length keys) (List.length sorted)

(* --- Karger: the heap pops in sorted clock order --- *)

(* Test-only copy of the sort-based contraction the heap replaced: the m
   clocks drawn in canonical order from the same stream, sorted by
   (clock, edge index), and unions in that order until two classes
   remain. *)
let sorted_run_once rng g =
  let n = Ugraph.n g in
  if n < 2 then invalid_arg "Karger.run_once: need >= 2 vertices";
  let edges = Ugraph.edges g in
  let m = Array.length edges in
  if m = 0 then invalid_arg "Karger.run_once: graph disconnected (no edges)";
  let clock = Array.make m 0.0 in
  for e = 0 to m - 1 do
    let rec nonzero () =
      let x = Prng.float rng 1.0 in
      if x = 0.0 then nonzero () else x
    in
    let u01 = nonzero () in
    let _, _, w = edges.(e) in
    clock.(e) <- -.log u01 /. w
  done;
  let order = Array.init m Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare clock.(a) clock.(b) with 0 -> Int.compare a b | c -> c)
    order;
  let parent = Array.init n Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let classes = ref n and i = ref 0 in
  while !classes > 2 && !i < m do
    let u, v, _ = edges.(order.(!i)) in
    incr i;
    let a = find u and b = find v in
    if a <> b then begin
      parent.(a) <- b;
      decr classes
    end
  done;
  if !classes > 2 then
    invalid_arg "Karger.run_once: graph disconnected (ran out of edges)";
  let rep = find 0 in
  let cut = Cut.of_mem ~n (fun v -> find v = rep) in
  (Csr.cut_value (Csr.of_ugraph g) cut, cut)

(* G(n, p) with fractional weights in [0.1, 5.0): often disconnected at
   small p. *)
let fractional_gnp rng ~n ~p =
  let g0 = Generators.erdos_renyi rng ~n ~p in
  let g = Ugraph.create n in
  Array.iter
    (fun (u, v, _) -> Ugraph.set_edge g u v (0.1 +. Prng.float rng 4.9))
    (Ugraph.edges g0);
  g

let prop_karger_sorted_order =
  QCheck.Test.make ~name:"karger run_once = sorted-clock contraction"
    ~count:150
    QCheck.(pair (int_bound 100000) (int_range 2 40))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = fractional_gnp rng ~n ~p:(0.02 +. Prng.float rng 0.4) in
      let outcome run =
        match run (Prng.create (seed + 1)) g with
        | v, c -> Ok (Int64.bits_of_float v, Cut.to_list c)
        | exception Invalid_argument msg -> Error msg
      in
      outcome Karger.run_once = outcome sorted_run_once)

(* [mincut] and [candidate_cuts] over the sorted-clock runs: run t draws
   from [Prng.split (Prng.fork rng) t], the first strictly smaller value
   wins, and a cut (up to complement) keeps its first run's value. *)
let prop_karger_pool_sorted_order =
  QCheck.Test.make
    ~name:"karger mincut/candidates = sorted-clock runs at domains 1/2/4"
    ~count:15
    QCheck.(pair (int_bound 100000) (int_range 2 40))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g0 = Generators.erdos_renyi_connected rng ~n ~p:0.25 in
      let g = Ugraph.create n in
      Array.iter
        (fun (u, v, _) -> Ugraph.set_edge g u v (0.1 +. Prng.float rng 4.9))
        (Ugraph.edges g0);
      let trials = 12 and factor = 2.0 in
      let runs =
        let master = Prng.fork (Prng.create (seed + 1)) in
        Array.init trials (fun t -> sorted_run_once (Prng.split master t) g)
      in
      let best =
        Array.fold_left (fun b r -> if fst r < fst b then r else b) runs.(0) runs
      in
      let key c = Cut.to_list (if Cut.mem c 0 then c else Cut.complement c) in
      let normal cands =
        List.sort compare
          (List.map (fun (v, c) -> (Int64.bits_of_float v, key c)) cands)
      in
      let expected =
        let seen = Hashtbl.create 16 in
        Array.iter
          (fun (v, c) ->
            if not (Hashtbl.mem seen (key c)) then Hashtbl.add seen (key c) (v, c))
          runs;
        normal
          (Hashtbl.fold
             (fun _ (v, c) acc ->
               if v <= (factor *. fst best) +. 1e-9 then (v, c) :: acc else acc)
             seen [])
      in
      List.for_all
        (fun domains ->
          let v, c = Karger.mincut ~domains (Prng.create (seed + 1)) ~trials g in
          Int64.bits_of_float v = Int64.bits_of_float (fst best)
          && Cut.to_list c = Cut.to_list (snd best)
          && normal
               (Karger.candidate_cuts ~domains (Prng.create (seed + 1)) ~trials
                  ~factor g)
             = expected)
        [ 1; 2; 4 ])

(* --- Maximum adjacency --- *)

(* Every scanned edge's attachment bounds its endpoints' local
   connectivity, and the last vertex of an MA order of a connected graph
   is separated from the one before it by its own weighted degree (the
   cut of the phase). *)
let prop_ma_scan =
  QCheck.Test.make ~name:"max-adjacency: q(e) <= lambda, last pair's cut"
    ~count:40
    QCheck.(pair (int_bound 100000) (int_range 2 24))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g0 = Generators.erdos_renyi_connected rng ~n ~p:0.3 in
      let g = Generators.random_multigraph_weights rng g0 ~max_weight:5 in
      let csr = Csr.of_ugraph g in
      let rows = Csr.out_rows csr in
      let order, q = Max_adjacency.scan rows in
      let net = Dinic.of_ugraph g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for i = rows.off.(u) to rows.off.(u + 1) - 1 do
          let v = rows.dst.(i) in
          if q.(i) > Dinic.maxflow net ~s:u ~t:v +. 1e-9 then ok := false
        done
      done;
      let s = order.(n - 2) and t = order.(n - 1) in
      let degree = ref 0.0 in
      Csr.iter_out csr t (fun _ w -> degree := !degree +. w);
      !ok && Float.abs (Dinic.maxflow net ~s ~t -. !degree) < 1e-9)

(* Two classes are left on a planted two-block graph whose blocks are
   far above the cap and whose cross cut is below it, and G/S carries the
   cross cut exactly. *)
let test_ma_contract_planted () =
  let rng = Prng.create 31 in
  let g0 = Generators.planted_mincut rng ~block:20 ~k:2 ~p_inner:0.9 in
  let g = Generators.random_multigraph_weights rng g0 ~max_weight:3 in
  let ma = Max_adjacency.contract ~cap:8.0 (Csr.out_rows (Csr.of_ugraph g)) in
  Alcotest.(check int) "classes" 2 (Max_adjacency.classes ma);
  let a = Max_adjacency.label ma 0 and b = Max_adjacency.label ma 39 in
  Alcotest.(check bool) "blocks apart" true (a <> b);
  for v = 0 to 19 do
    Alcotest.(check int) "block 0" a (Max_adjacency.label ma v);
    Alcotest.(check int) "block 1" b (Max_adjacency.label ma (v + 20))
  done;
  let cross = Stoer_wagner.mincut_value g in
  check_float "quotient edge" cross
    (Csr.weight (Max_adjacency.quotient ma) a b);
  check_float "attachment" cross (Max_adjacency.attachment ma a b)

(* --- Karger–Stein --- *)

let test_karger_stein_matches_sw () =
  let rng = Prng.create 14 in
  for _ = 1 to 8 do
    let g = Generators.planted_mincut rng ~block:15 ~k:3 ~p_inner:0.6 in
    let sw = Stoer_wagner.mincut_value g in
    let ks, c = Karger_stein.mincut rng g in
    check_float "ks = sw" sw ks;
    check_float "witness consistent" ks (Ugraph.cut_value g c)
  done

let test_karger_stein_weighted () =
  let rng = Prng.create 15 in
  let g =
    Generators.random_multigraph_weights rng
      (Generators.erdos_renyi_connected rng ~n:25 ~p:0.3)
      ~max_weight:7
  in
  let sw = Stoer_wagner.mincut_value g in
  let ks, _ = Karger_stein.mincut ~runs:30 rng g in
  check_float "weighted ks = sw" sw ks

let test_karger_stein_run_once_upper_bound () =
  let rng = Prng.create 16 in
  let g = Generators.cycle ~n:12 in
  for _ = 1 to 10 do
    let v, c = Karger_stein.run_once rng g in
    Alcotest.(check bool) "upper bound" true (v >= 2.0 -. 1e-9);
    check_float "witness" v (Ugraph.cut_value g c)
  done

let test_karger_stein_two_nodes () =
  let rng = Prng.create 17 in
  let g = Ugraph.of_edges 2 [ (0, 1, 4.5) ] in
  let v, _ = Karger_stein.mincut rng g in
  check_float "trivial" 4.5 v

(* --- Gomory–Hu --- *)

let test_gh_path_graph () =
  (* On a path, min u-v cut = lightest edge between them. *)
  let g = Ugraph.of_edges 4 [ (0, 1, 5.0); (1, 2, 1.0); (2, 3, 3.0) ] in
  let t = Gomory_hu.build g in
  check_float "0-3" 1.0 (Gomory_hu.min_cut_value t 0 3);
  check_float "0-1" 5.0 (Gomory_hu.min_cut_value t 0 1);
  check_float "2-3" 3.0 (Gomory_hu.min_cut_value t 2 3)

let test_gh_all_pairs_match_maxflow () =
  let rng = Prng.create 18 in
  for _ = 1 to 5 do
    let g = Generators.erdos_renyi_connected rng ~n:10 ~p:0.3 in
    let g = Generators.random_multigraph_weights rng g ~max_weight:4 in
    let t = Gomory_hu.build g in
    let net = Dinic.of_ugraph g in
    for u = 0 to 9 do
      for v = u + 1 to 9 do
        check_float
          (Printf.sprintf "pair %d-%d" u v)
          (Dinic.maxflow net ~s:u ~t:v)
          (Gomory_hu.min_cut_value t u v)
      done
    done
  done

let test_gh_witness_cuts_valid () =
  let rng = Prng.create 19 in
  let g = Generators.erdos_renyi_connected rng ~n:12 ~p:0.3 in
  let t = Gomory_hu.build g in
  for u = 0 to 11 do
    for v = u + 1 to 11 do
      let f, side = Gomory_hu.min_cut t u v in
      Alcotest.(check bool) "separates" true (Cut.mem side u && not (Cut.mem side v));
      check_float "witness value" f (Ugraph.cut_value g side)
    done
  done

let test_gh_global_equals_sw () =
  let rng = Prng.create 20 in
  for _ = 1 to 5 do
    let g = Generators.erdos_renyi_connected rng ~n:14 ~p:0.25 in
    let t = Gomory_hu.build g in
    let f, side = Gomory_hu.global_min_cut t in
    check_float "global = sw" (Stoer_wagner.mincut_value g) f;
    check_float "witness" f (Ugraph.cut_value g side)
  done

let test_gh_tree_has_n_minus_1_edges () =
  let rng = Prng.create 21 in
  let g = Generators.erdos_renyi_connected rng ~n:9 ~p:0.4 in
  let t = Gomory_hu.build g in
  Alcotest.(check int) "n-1 edges" 8 (List.length (Gomory_hu.tree_edges t))

let test_gh_rejects_disconnected () =
  let g = Ugraph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Gomory_hu.build: graph must be connected") (fun () ->
      ignore (Gomory_hu.build g))

(* --- Brute --- *)

let test_brute_digraph_min_direction () =
  (* One heavy direction, one light: brute should report the light one. *)
  let g = Digraph.of_edges 2 [ (0, 1, 9.0); (1, 0, 2.0) ] in
  let v, _ = Brute.mincut_digraph g in
  check_float "takes min direction" 2.0 v

let test_brute_rejects_large () =
  let g = Ugraph.create 30 in
  Alcotest.check_raises "too large"
    (Invalid_argument "Brute.mincut: need 2 <= n <= 24") (fun () ->
      ignore (Brute.mincut_ugraph g))

(* qcheck: min-cut values form an ultrametric-like structure on the GH tree:
   mincut(u,w) >= min(mincut(u,v), mincut(v,w)). *)
let prop_gh_ultrametric =
  QCheck.Test.make ~name:"gomory-hu ultrametric inequality" ~count:20
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Generators.erdos_renyi_connected rng ~n:9 ~p:0.35 in
      let t = Gomory_hu.build g in
      let u = Prng.int rng 9 and v = Prng.int rng 9 and w = Prng.int rng 9 in
      u = v || v = w || u = w
      || Gomory_hu.min_cut_value t u w
         >= Float.min (Gomory_hu.min_cut_value t u v) (Gomory_hu.min_cut_value t v w)
            -. 1e-9)

(* qcheck: adding an edge never decreases the global min cut. *)
let prop_sw_monotone_under_edge_addition =
  QCheck.Test.make ~name:"min cut monotone under edge addition" ~count:25
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Generators.erdos_renyi_connected rng ~n:10 ~p:0.3 in
      let before = Stoer_wagner.mincut_value g in
      let u = Prng.int rng 10 and v = Prng.int rng 10 in
      if u = v then true
      else begin
        let g' = Ugraph.copy g in
        Ugraph.add_edge g' u v 1.5;
        Stoer_wagner.mincut_value g' >= before -. 1e-9
      end)

(* qcheck: SW = brute on random weighted graphs *)
let prop_sw_equals_brute =
  QCheck.Test.make ~name:"stoer-wagner = brute force" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Generators.erdos_renyi_connected rng ~n:8 ~p:0.35 in
      let g = Generators.random_multigraph_weights rng g ~max_weight:4 in
      Float.abs (Stoer_wagner.mincut_value g -. fst (Brute.mincut_ugraph g)) < 1e-9)

let prop_edge_connectivity_equals_sw =
  QCheck.Test.make ~name:"dinic edge connectivity = stoer-wagner" ~count:25
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Generators.erdos_renyi_connected rng ~n:9 ~p:0.3 in
      Float.abs (Dinic.edge_connectivity g -. Stoer_wagner.mincut_value g) < 1e-9)

let suite =
  [
    Alcotest.test_case "sw: two nodes" `Quick test_sw_two_nodes;
    Alcotest.test_case "sw: path" `Quick test_sw_path;
    Alcotest.test_case "sw: cycle" `Quick test_sw_cycle;
    Alcotest.test_case "sw: complete" `Quick test_sw_complete;
    Alcotest.test_case "sw: disconnected" `Quick test_sw_disconnected;
    Alcotest.test_case "sw: planted weighted" `Quick test_sw_weighted_planted;
    Alcotest.test_case "sw: matches brute" `Quick test_sw_matches_brute;
    Alcotest.test_case "sw: 100x100 grid in O(n + m) words" `Quick
      test_sw_large_sparse;
    Alcotest.test_case "dinic: simple s-t" `Quick test_dinic_simple_st;
    Alcotest.test_case "dinic: bottleneck" `Quick test_dinic_bottleneck;
    Alcotest.test_case "dinic: no path" `Quick test_dinic_no_path;
    Alcotest.test_case "dinic: repeated runs reset" `Quick test_dinic_repeated_runs_reset;
    Alcotest.test_case "dinic: mincut side" `Quick test_dinic_mincut_side;
    Alcotest.test_case "dinic: maxflow = min s-t cut" `Quick test_dinic_maxflow_equals_brute_st_cut;
    Alcotest.test_case "dinic: edge connectivity cycle" `Quick test_edge_connectivity_cycle;
    Alcotest.test_case "dinic: edge connectivity complete" `Quick test_edge_connectivity_complete;
    Alcotest.test_case "dinic: edge connectivity = sw" `Quick test_edge_connectivity_matches_sw;
    Alcotest.test_case "dinic: edge disjoint paths" `Quick test_edge_disjoint_paths;
    Alcotest.test_case "dinic: golden flows" `Quick test_dinic_golden;
    Alcotest.test_case "dinic: rejects bad vertices" `Quick test_dinic_rejects_bad_vertices;
    Alcotest.test_case "dinic: maxflow allocation bounded" `Quick
      test_dinic_maxflow_allocation;
    Alcotest.test_case "karger: run once upper bound" `Quick test_karger_run_once_upper_bound;
    Alcotest.test_case "karger: finds planted" `Quick test_karger_finds_planted;
    Alcotest.test_case "karger: candidates bounded/sorted" `Quick test_karger_candidates_sorted_and_bounded;
    Alcotest.test_case "karger: candidates distinct" `Quick test_karger_candidates_distinct;
    QCheck_alcotest.to_alcotest prop_karger_sorted_order;
    QCheck_alcotest.to_alcotest prop_karger_pool_sorted_order;
    QCheck_alcotest.to_alcotest prop_ma_scan;
    Alcotest.test_case "max-adjacency: planted contraction" `Quick
      test_ma_contract_planted;
    Alcotest.test_case "karger-stein: matches sw" `Quick test_karger_stein_matches_sw;
    Alcotest.test_case "karger-stein: weighted" `Quick test_karger_stein_weighted;
    Alcotest.test_case "karger-stein: upper bound" `Quick test_karger_stein_run_once_upper_bound;
    Alcotest.test_case "karger-stein: two nodes" `Quick test_karger_stein_two_nodes;
    Alcotest.test_case "gomory-hu: path graph" `Quick test_gh_path_graph;
    Alcotest.test_case "gomory-hu: all pairs = maxflow" `Quick test_gh_all_pairs_match_maxflow;
    Alcotest.test_case "gomory-hu: witness cuts" `Quick test_gh_witness_cuts_valid;
    Alcotest.test_case "gomory-hu: global = sw" `Quick test_gh_global_equals_sw;
    Alcotest.test_case "gomory-hu: tree size" `Quick test_gh_tree_has_n_minus_1_edges;
    Alcotest.test_case "gomory-hu: rejects disconnected" `Quick test_gh_rejects_disconnected;
    Alcotest.test_case "brute: digraph min direction" `Quick test_brute_digraph_min_direction;
    Alcotest.test_case "brute: rejects large" `Quick test_brute_rejects_large;
    QCheck_alcotest.to_alcotest prop_gh_ultrametric;
    QCheck_alcotest.to_alcotest prop_sw_monotone_under_edge_addition;
    QCheck_alcotest.to_alcotest prop_sw_equals_brute;
    QCheck_alcotest.to_alcotest prop_edge_connectivity_equals_sw;
  ]
