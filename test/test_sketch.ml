open Dcs

let check_float = Alcotest.(check (float 1e-9))

(* --- Sketch interface / exact sketch --- *)

let test_exact_sketch_is_exact () =
  let rng = Prng.create 1 in
  let g = Generators.random_digraph rng ~n:10 ~p:0.4 ~max_weight:3.0 in
  let sk = Exact_sketch.create g in
  for _ = 1 to 20 do
    let c = Cut.random rng ~n:10 in
    check_float "exact" (Cut.value g c) (sk.Sketch.query c)
  done

let test_exact_sketch_size_positive () =
  let g = Digraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 2.0) ] in
  let sk = Exact_sketch.create g in
  Alcotest.(check bool) "size > 2 * 64" true (sk.Sketch.size_bits > 128)

let test_exact_sketch_independent_of_mutation () =
  let g = Digraph.of_edges 3 [ (0, 1, 1.0) ] in
  let sk = Exact_sketch.create g in
  Digraph.add_edge g 1 2 5.0;
  let c = Cut.of_indices ~n:3 [ 0; 1 ] in
  check_float "copy isolated" 0.0 (sk.Sketch.query c)

let test_encoding_bits_monotone () =
  let small = Digraph.of_edges 4 [ (0, 1, 1.0) ] in
  let large = Digraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ] in
  Alcotest.(check bool) "more edges, more bits" true
    (Sketch.digraph_encoding_bits large > Sketch.digraph_encoding_bits small)

let test_relative_error () =
  let g = Digraph.of_edges 2 [ (0, 1, 10.0) ] in
  let sk =
    { Sketch.name = "test"; size_bits = 0; query = (fun _ -> 11.0); graph = None }
  in
  let c = Cut.singleton ~n:2 0 in
  check_float "10% error" 0.1 (Sketch.relative_error sk g c)

(* One test per branch of the zero-cut contract in the .mli. *)
let test_relative_error_zero_branches () =
  (* Graph with only the 1 -> 0 edge: the cut ({0}, {1}) has truth 0. *)
  let g = Digraph.of_edges 2 [ (1, 0, 10.0) ] in
  let zero_cut = Cut.singleton ~n:2 0 in
  let const v =
    { Sketch.name = "const"; size_bits = 0; query = (fun _ -> v); graph = None }
  in
  check_float "truth 0, estimate 0" 0.0 (Sketch.relative_error (const 0.0) g zero_cut);
  Alcotest.(check bool) "truth 0, estimate nonzero" true
    (Sketch.relative_error (const 0.5) g zero_cut = infinity);
  (* Even a sub-tolerance estimate of a zero cut is infinitely wrong. *)
  Alcotest.(check bool) "truth 0, tiny estimate" true
    (Sketch.relative_error (const 1e-15) g zero_cut = infinity);
  (* Truth nonzero: estimate 0 is the ordinary branch with error 1. *)
  let nonzero_cut = Cut.singleton ~n:2 1 in
  check_float "truth nonzero, estimate 0" 1.0
    (Sketch.relative_error (const 0.0) g nonzero_cut);
  check_float "ordinary branch" 0.2 (Sketch.relative_error (const 8.0) g nonzero_cut)

(* --- Noisy oracle --- *)

let test_noisy_oracle_bounds () =
  let rng = Prng.create 2 in
  let g = Generators.random_digraph rng ~n:8 ~p:0.5 ~max_weight:2.0 in
  List.iter
    (fun mode ->
      let sk = Noisy_oracle.create ~mode rng ~eps:0.1 g in
      for _ = 1 to 30 do
        let c = Cut.random rng ~n:8 in
        let truth = Cut.value g c in
        let est = sk.Sketch.query c in
        Alcotest.(check bool) "within (1±eps)" true
          (est >= (0.9 *. truth) -. 1e-9 && est <= (1.1 *. truth) +. 1e-9)
      done)
    [ Noisy_oracle.Random; Noisy_oracle.Adversarial ]

let test_noisy_oracle_deterministic_modes () =
  let rng = Prng.create 3 in
  let g = Digraph.of_edges 2 [ (0, 1, 10.0) ] in
  let c = Cut.singleton ~n:2 0 in
  let up = Noisy_oracle.create ~mode:Noisy_oracle.Deterministic_up rng ~eps:0.2 g in
  check_float "up" 12.0 (up.Sketch.query c);
  let down = Noisy_oracle.create ~mode:Noisy_oracle.Deterministic_down rng ~eps:0.2 g in
  check_float "down" 8.0 (down.Sketch.query c)

let test_noisy_oracle_zero_eps_exact () =
  let rng = Prng.create 4 in
  let g = Digraph.of_edges 2 [ (0, 1, 7.0) ] in
  let sk = Noisy_oracle.create rng ~eps:0.0 g in
  check_float "exact at eps 0" 7.0 (sk.Sketch.query (Cut.singleton ~n:2 0))

let test_noisy_oracle_zero_weight_cut () =
  (* A zero cut must come back as exactly 0 in every mode: multiplicative
     noise has nothing to scale, so no mode may fabricate weight. *)
  let rng = Prng.create 30 in
  (* Only the 1 -> 0 edge: the directed cut ({0}, {1}) is 0. *)
  let g = Digraph.of_edges 2 [ (1, 0, 10.0) ] in
  let zero_cut = Cut.singleton ~n:2 0 in
  List.iter
    (fun mode ->
      let sk = Noisy_oracle.create ~mode rng ~eps:0.9 g in
      for _ = 1 to 10 do
        check_float "zero cut stays zero" 0.0 (sk.Sketch.query zero_cut)
      done)
    [ Noisy_oracle.Random; Noisy_oracle.Adversarial;
      Noisy_oracle.Deterministic_up; Noisy_oracle.Deterministic_down ]

let test_noisy_oracle_extreme_noise () =
  (* eps = 0.99 is legal and the (1 ± eps) envelope still holds; answers
     stay strictly positive on nonzero cuts (the factor can't reach 0). *)
  let rng = Prng.create 31 in
  let g = Generators.random_digraph rng ~n:8 ~p:0.5 ~max_weight:2.0 in
  let sk = Noisy_oracle.create ~mode:Noisy_oracle.Adversarial rng ~eps:0.99 g in
  for _ = 1 to 50 do
    let c = Cut.random rng ~n:8 in
    let truth = Cut.value g c in
    let est = sk.Sketch.query c in
    Alcotest.(check bool) "within (1±0.99)" true
      (est >= (0.01 *. truth) -. 1e-9 && est <= (1.99 *. truth) +. 1e-9);
    if truth > 0.0 then
      Alcotest.(check bool) "never zeroed out" true (est > 0.0)
  done

let test_noisy_oracle_rejects_bad_eps () =
  let rng = Prng.create 32 in
  let g = Digraph.of_edges 2 [ (0, 1, 1.0) ] in
  let bad eps =
    Alcotest.check_raises "eps in [0,1)"
      (Invalid_argument "Noisy_oracle.create: eps in [0,1)") (fun () ->
        ignore (Noisy_oracle.create rng ~eps g))
  in
  bad 1.0;
  bad 1.5;
  bad (-0.01)

let test_frame_bits_are_encoding_plus_checksum () =
  let rng = Prng.create 33 in
  let g = Generators.erdos_renyi_connected rng ~n:12 ~p:0.3 in
  let dg = Generators.random_digraph rng ~n:9 ~p:0.4 ~max_weight:2.0 in
  Alcotest.(check int) "ugraph frame"
    (Sketch.ugraph_encoding_bits g + Checksum.bits)
    (Sketch.ugraph_frame_bits g);
  Alcotest.(check int) "digraph frame"
    (Sketch.digraph_encoding_bits dg + Checksum.bits)
    (Sketch.digraph_frame_bits dg);
  (* And the frame itself round-trips the graph. *)
  match Serialize.ugraph_of_frame (Serialize.ugraph_to_frame g) with
  | Ok g' -> Alcotest.(check bool) "roundtrip" true (Ugraph.equal g g')
  | Error e -> Alcotest.failf "clean frame rejected: %s" e

(* --- Strength (Nagamochi–Ibaraki) --- *)

let test_strength_tree_all_one () =
  let g = Generators.path ~n:6 in
  let s = Strength.compute g in
  Strength.fold
    (fun _ _ idx () -> Alcotest.(check int) "tree edges index 1" 1 idx)
    s ()

let test_strength_complete_graph () =
  let g = Generators.complete ~n:6 in
  let s = Strength.compute g in
  (* K6 is 5-edge-connected; every NI index must be <= 5 and the max must
     reach at least half of it. *)
  Alcotest.(check bool) "max index <= 5" true (Strength.max_index s <= 5);
  Alcotest.(check bool) "max index >= 2" true (Strength.max_index s >= 2);
  Alcotest.(check int) "min index 1" 1 (Strength.min_index s)

let test_strength_weighted_multiplicity () =
  (* Two nodes, weight 7 edge: the edge survives 7 forests. *)
  let g = Ugraph.of_edges 2 [ (0, 1, 7.0) ] in
  let s = Strength.compute g in
  Alcotest.(check int) "index = weight" 7 (Strength.index s 0 1)

let test_strength_not_found () =
  let g = Generators.path ~n:4 in
  let s = Strength.compute g in
  Alcotest.check_raises "non-edge"
    (Invalid_argument "Strength.index: (0, 3) is not an edge") (fun () ->
      ignore (Strength.index s 0 3))

let test_strength_fold_sorted () =
  let rng = Prng.create 31 in
  let g = Generators.erdos_renyi_connected rng ~n:12 ~p:0.4 in
  let last = ref (-1, -1) in
  Strength.fold
    (fun u v _ () ->
      Alcotest.(check bool) "ascending (u, v)" true ((u, v) > !last);
      last := (u, v))
    (Strength.compute g) ()

let test_strength_max_rounds_cap () =
  let g = Ugraph.of_edges 2 [ (0, 1, 100.0) ] in
  let s = Strength.compute ~max_rounds:10 g in
  Alcotest.(check int) "capped" 10 (Strength.index s 0 1);
  Alcotest.(check int) "rounds used" 10 (Strength.rounds_used s)

(* Golden pin of the decomposition on one seeded graph mixing integer and
   fractional weights: a digest of [fold]'s (u, v, index) triples, the
   round count and the certificate's frozen fingerprint. *)
let test_strength_golden () =
  let rng = Prng.create 2024 in
  let g0 = Generators.erdos_renyi_connected rng ~n:24 ~p:0.35 in
  let g = Generators.random_multigraph_weights rng g0 ~max_weight:5 in
  Array.iter
    (fun (u, v, w) ->
      if (u + v) mod 3 = 0 then Ugraph.set_edge g u v ((w *. 0.5) +. 0.25))
    (Ugraph.edges g);
  let s = Strength.compute g in
  let digest =
    Strength.fold
      (fun u v i h ->
        List.fold_left
          (fun h x -> Prng.mix64 (Int64.logxor h (Int64.of_int x)))
          h [ u; v; i ])
      s 0L
  in
  Alcotest.(check int64) "fold digest" (-5432684861885436900L) digest;
  Alcotest.(check int) "rounds used" 24 (Strength.rounds_used s);
  Alcotest.(check int64) "certificate fingerprint" 6483699861780285628L
    (Csr.fingerprint (Csr.of_ugraph (Strength.certificate s g)));
  Strength.fold
    (fun u v i () ->
      Alcotest.(check int) "index u v" i (Strength.index s u v);
      Alcotest.(check int) "index v u" i (Strength.index s v u))
    s ();
  Alcotest.check_raises "self pair"
    (Invalid_argument "Strength.index: (2, 2) is not an edge") (fun () ->
      ignore (Strength.index s 2 2))

(* NI index lower-bounds local edge connectivity. *)
let prop_strength_below_connectivity =
  QCheck.Test.make ~name:"NI index <= local edge connectivity" ~count:30
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Generators.erdos_renyi_connected rng ~n:10 ~p:0.35 in
      let s = Strength.compute g in
      Strength.fold
        (fun u v idx acc ->
          acc && idx <= Dinic.edge_disjoint_paths g ~s:u ~t:v)
        s true)

(* --- Connectivity estimation --- *)

(* Every tier of the estimator — weight, NI index, common-neighbour,
   capped flow — must stay below the Dinic-certified local connectivity
   (capped), on weighted graphs. *)
let prop_connectivity_estimates_sound =
  QCheck.Test.make ~name:"connectivity estimates <= min(lambda, cap)"
    ~count:20
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g0 = Generators.erdos_renyi_connected rng ~n:10 ~p:0.35 in
      let g = Generators.random_multigraph_weights rng g0 ~max_weight:4 in
      let cap = 6.0 in
      let conn = Connectivity.estimate_ugraph ~cap g in
      let net = Dinic.of_ugraph g in
      let s = Strength.compute g in
      let ok = ref true in
      Connectivity.iter conn (fun u v w lam ->
          let lambda = Dinic.maxflow net ~s:u ~t:v in
          (* estimate sound and at least the trivial weight bound *)
          if lam > Float.min lambda cap +. 1e-6 then ok := false;
          if lam +. 1e-6 < Float.min w cap then ok := false;
          (* NI index <= Dinic-certified λ(u,v), weighted *)
          if float_of_int (Strength.index s u v) > lambda +. 1e-6 then
            ok := false);
      !ok)

(* Planted dense blocks whose weighted degrees pass the cap: the
   maximum-adjacency tier contracts, and every estimate — inside a class,
   or from the chain and the flows on G/S — stays below the
   Dinic-certified min(λ, cap), on integer and on fractional weights. *)
let prop_adjacency_tier_sound =
  QCheck.Test.make ~name:"maximum-adjacency tier: estimates <= min(lambda, cap)"
    ~count:20
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g0 = Generators.planted_mincut rng ~block:10 ~k:3 ~p_inner:0.9 in
      let g = Generators.random_multigraph_weights rng g0 ~max_weight:4 in
      if seed mod 2 = 1 then
        Array.iter
          (fun (u, v, w) -> Ugraph.set_edge g u v ((w *. 0.7) +. 0.15))
          (Ugraph.edges g);
      let cap = 4.0 +. float_of_int (seed mod 5) in
      let conn = Connectivity.estimate_ugraph ~flow_budget:(seed mod 5) ~cap g in
      let net = Dinic.of_ugraph g in
      let ok = ref ((Connectivity.stats conn).Connectivity.by_adjacency > 0) in
      Connectivity.iter conn (fun u v _ lam ->
          if lam > Float.min (Dinic.maxflow net ~s:u ~t:v) cap +. 1e-6 then
            ok := false);
      !ok)

let test_connectivity_exact_when_uncapped () =
  (* With an unreachable cap and unlimited flows, the exact tier runs
     everywhere: estimates equal true local connectivities. *)
  let rng = Prng.create 8 in
  let g0 = Generators.erdos_renyi_connected rng ~n:9 ~p:0.4 in
  let g = Generators.random_multigraph_weights rng g0 ~max_weight:3 in
  let conn = Connectivity.estimate_ugraph ~cap:1e9 g in
  let net = Dinic.of_ugraph g in
  Connectivity.iter conn (fun u v _ lam ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "lambda(%d,%d)" u v)
        (Dinic.maxflow net ~s:u ~t:v)
        lam)

let digest h xs = List.fold_left (fun h x -> Prng.mix64 (Int64.logxor h x)) h xs

let connectivity_digest conn =
  let h = ref 0L in
  Connectivity.iter conn (fun u v _ lam ->
      h :=
        digest !h [ Int64.of_int u; Int64.of_int v; Int64.bits_of_float lam ]);
  !h

let check_stats name
    (edges, by_adjacency, by_weight, by_strength, by_triangle, flows, budgeted)
    conn =
  let s = Connectivity.stats conn in
  let field f want got = Alcotest.(check int) (name ^ ": " ^ f) want got in
  field "edges" edges s.Connectivity.edges;
  field "by_adjacency" by_adjacency s.by_adjacency;
  field "by_weight" by_weight s.by_weight;
  field "by_strength" by_strength s.by_strength;
  field "by_triangle" by_triangle s.by_triangle;
  field "flows" flows s.flows;
  field "budgeted" budgeted s.budgeted

(* Golden pins for the tier chain: (a) a planted two-block ugraph with
   fractional weights whose weighted degrees pass the cap, so the
   maximum-adjacency tier contracts (5 passes certify 80 edges) and the
   flows run on G/S, and whose flow budget is below its unresolved
   count; (b) the same graph with unlimited flows and no cap (the
   maximum-adjacency tier off); (c) a β-balanced digraph, every other
   tier firing. *)
let test_connectivity_golden () =
  let rng = Prng.create 4242 in
  let g0 = Generators.planted_mincut rng ~block:14 ~k:3 ~p_inner:0.45 in
  let g = Generators.random_multigraph_weights rng g0 ~max_weight:3 in
  Array.iter
    (fun (u, v, w) -> Ugraph.set_edge g u v ((w *. 0.7) +. 0.15))
    (Ugraph.edges g);
  let a = Connectivity.estimate_ugraph ~flow_budget:12 ~cap:7.0 g in
  Alcotest.(check int64) "(a) digest" (-5752155611118262521L)
    (connectivity_digest a);
  check_stats "(a)" (102, 80, 0, 0, 0, 12, 10) a;
  Alcotest.(check int) "(a) passes" 5 (Connectivity.stats a).passes;
  let b = Connectivity.estimate_ugraph ~cap:infinity g in
  Alcotest.(check int64) "(b) digest" 1865203440959793756L
    (connectivity_digest b);
  check_stats "(b)" (102, 0, 0, 0, 0, 102, 0) b;
  let d =
    Generators.balanced_digraph (Prng.create 77) ~n:16 ~p:0.3 ~beta:2.0
      ~max_weight:5.0
  in
  let c = Connectivity.estimate_digraph ~beta:2.0 ~cap:6.0 d in
  Alcotest.(check int64) "(c) digest" (-5901374879931250206L)
    (connectivity_digest c);
  check_stats "(c)" (148, 0, 4, 67, 68, 9, 0) c

(* Budgets {0, 1, 5, unlimited} against caps {1, 6, ∞}: every edge is
   resolved by exactly one tier or kept its cheap bound for lack of
   budget, flows run up to the budget, and the conn.* registry moves by
   exactly the returned stats, maximum-adjacency passes included. *)
let prop_connectivity_stats_add_up =
  let counters =
    List.map
      (fun name -> Obs.Metrics.counter ("conn." ^ name))
      [
        "edges"; "by_adjacency"; "by_weight"; "by_strength"; "by_triangle";
        "flows"; "budgeted"; "adjacency_passes";
      ]
  in
  let probe () = List.map Obs.Metrics.counter_value counters in
  QCheck.Test.make ~name:"connectivity stats add up" ~count:10
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g0 = Generators.planted_mincut rng ~block:8 ~k:2 ~p_inner:0.5 in
      let g = Generators.random_multigraph_weights rng g0 ~max_weight:4 in
      let d =
        Generators.balanced_digraph rng ~n:10 ~p:0.35 ~beta:2.0 ~max_weight:4.0
      in
      let adds_up budget estimate =
        let before = probe () in
        let s = Connectivity.stats (estimate ()) in
        let delta = List.map2 ( - ) (probe ()) before in
        s.Connectivity.edges
        = s.by_adjacency + s.by_weight + s.by_strength + s.by_triangle
          + s.flows + s.budgeted
        && s.flows = min budget (s.flows + s.budgeted)
        && delta
           = [ s.edges; s.by_adjacency; s.by_weight; s.by_strength;
               s.by_triangle; s.flows; s.budgeted; s.passes ]
      in
      List.for_all
        (fun flow_budget ->
          List.for_all
            (fun cap ->
              let budget = Option.value flow_budget ~default:max_int in
              adds_up budget (fun () ->
                  Connectivity.estimate_ugraph ?flow_budget ~cap g)
              && adds_up budget (fun () ->
                     Connectivity.estimate_digraph ?flow_budget ~beta:2.0 ~cap
                       d))
            [ 1.0; 6.0; infinity ])
        [ Some 0; Some 1; Some 5; None ])

(* A decomposition must be of the graph being estimated. On the unit path
   0–1–2–3 (λ = 1 on every edge) a supergraph's indices exceed λ, which
   would make the sampler undersample, and a subgraph's lack edges; the
   path extended by an edge (3, 4) matches it at every position of the
   path and differs only in length. All three are rejected by name, for a
   ugraph and for a digraph whose undirected projection is the path. *)
let test_connectivity_rejects_foreign_strengths () =
  let path = Ugraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ] in
  let super = Ugraph.copy path in
  List.iter
    (fun (u, v, w) -> Ugraph.add_edge super u v w)
    [ (0, 1, 4.0); (1, 2, 5.0); (2, 3, 4.0);
      (0, 2, 5.0); (1, 3, 5.0); (0, 3, 4.0) ];
  let sub = Ugraph.of_edges 4 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let tail =
    Ugraph.of_edges 5 [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 4, 1.0) ]
  in
  let ug_error =
    Invalid_argument
      "Connectivity.estimate_ugraph: strengths decompose a different graph"
  in
  List.iter
    (fun h ->
      Alcotest.check_raises "ugraph" ug_error (fun () ->
          ignore
            (Connectivity.estimate_ugraph ~strengths:(Strength.compute h)
               ~flow_budget:0 ~cap:100.0 path)))
    [ super; sub; tail ];
  let own =
    Connectivity.estimate_ugraph ~strengths:(Strength.compute path)
      ~flow_budget:0 ~cap:100.0 path
  in
  Connectivity.iter own (fun u v _ lam ->
      check_float (Printf.sprintf "lambda(%d,%d)" u v) 1.0 lam);
  (* 0→1 and 1→0 share the projection's pair (0, 1). *)
  let d =
    Digraph.of_edges 4 [ (0, 1, 1.0); (1, 0, 1.0); (1, 2, 1.0); (3, 2, 1.0) ]
  in
  let dg_error =
    Invalid_argument
      "Connectivity.estimate_digraph: strengths decompose a different graph"
  in
  List.iter
    (fun h ->
      Alcotest.check_raises "digraph" dg_error (fun () ->
          ignore
            (Connectivity.estimate_digraph ~strengths:(Strength.compute h)
               ~flow_budget:0 ~cap:100.0 d)))
    [ super; sub; tail ];
  let own =
    Connectivity.estimate_digraph ~strengths:(Strength.compute path)
      ~flow_budget:0 ~cap:100.0 d
  in
  Alcotest.(check int) "digraph: every arc estimated" 4
    (Connectivity.stats own).Connectivity.edges

(* --- Binomial weight resampling --- *)

let test_binomial_keep_identity () =
  (* p >= 1 keeps the edge at its exact weight without consuming the
     stream. *)
  let rng = Prng.create 9 in
  Alcotest.(check (option (float 0.0)))
    "p=1" (Some 7.0)
    (Importance.binomial_keep rng ~p:1.0 ~w:7.0);
  Alcotest.(check (option (float 0.0)))
    "p=0" None
    (Importance.binomial_keep rng ~p:0.0 ~w:7.0)

let test_binomial_keep_expectation () =
  (* E[resampled weight] = w: kept weight x/p with x ~ Bin(w, p). *)
  let rng = Prng.create 10 in
  let w = 12.0 and p = 0.3 and trials = 20000 in
  let acc = ref 0.0 in
  for _ = 1 to trials do
    match Importance.binomial_keep rng ~p ~w with
    | Some w' -> acc := !acc +. w'
    | None -> ()
  done;
  let mean = !acc /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f within 2%% of %g" mean w)
    true
    (Float.abs (mean -. w) /. w < 0.02)

let test_binomial_keep_deterministic () =
  (* The same split stream replays the same decision — the per-edge
     determinism contract of the connectivity samplers. *)
  let master = Prng.create 11 in
  let draw () =
    List.init 64 (fun i ->
        Importance.binomial_keep (Prng.split master i) ~p:0.4 ~w:5.0)
  in
  Alcotest.(check bool) "split streams replay" true (draw () = draw ())

(* --- Importance sampling --- *)

(* The canonical order [Ugraph.edges]/[Digraph.edges] lay down by counting
   passes equals a comparison sort of the table-order edge list, on graphs
   from n = 0 up with some edges deleted again through set_edge ... 0.0. *)
let prop_canonical_edges =
  QCheck.Test.make ~name:"sorted edges equal a comparison sort" ~count:60
    QCheck.(pair (int_bound 100000) (int_bound 14))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let ug = Ugraph.create n and dg = Digraph.create n in
      if n >= 2 then
        for _ = 1 to 3 * n do
          let u = Prng.int rng n and v = Prng.int rng n in
          if u <> v then begin
            let w = Prng.float rng 4.0 +. 0.5 in
            Ugraph.add_edge ug u v w;
            Digraph.add_edge dg u v w
          end
        done;
      Array.iter
        (fun (u, v, _) -> if Prng.bool rng then Ugraph.set_edge ug u v 0.0)
        (Ugraph.edges ug);
      Array.iter
        (fun (u, v, _) -> if Prng.bool rng then Digraph.set_edge dg u v 0.0)
        (Digraph.edges dg);
      let cons u v w acc = (u, v, w) :: acc in
      let by_uv (a, b, _) (c, d, _) = compare (a, b) (c, d) in
      Array.to_list (Ugraph.edges ug)
      = List.sort by_uv (Ugraph.fold_edges cons ug [])
      && Array.to_list (Digraph.edges dg)
         = List.sort by_uv (Digraph.fold_edges cons dg []))

let test_importance_keep_all () =
  let rng = Prng.create 5 in
  let g = Generators.erdos_renyi_connected rng ~n:12 ~p:0.3 in
  let h = Importance.sample_ugraph rng ~prob:(fun _ _ _ -> 1.0) g in
  Alcotest.(check bool) "identical" true (Ugraph.equal g h)

let test_importance_drop_all () =
  let rng = Prng.create 6 in
  let g = Generators.erdos_renyi_connected rng ~n:12 ~p:0.3 in
  let h = Importance.sample_ugraph rng ~prob:(fun _ _ _ -> 0.0) g in
  Alcotest.(check int) "empty" 0 (Ugraph.m h)

let test_importance_unbiased_cut () =
  let rng = Prng.create 7 in
  let g = Generators.complete ~n:14 in
  let c = Cut.of_mem ~n:14 (fun v -> v < 7) in
  let truth = Ugraph.cut_value g c in
  let trials = 300 in
  let acc = ref 0.0 in
  for _ = 1 to trials do
    let h = Importance.sample_ugraph rng ~prob:(fun _ _ _ -> 0.5) g in
    acc := !acc +. Ugraph.cut_value h c
  done;
  let mean = !acc /. float_of_int trials in
  Alcotest.(check bool) "unbiased within 5%" true
    (Float.abs (mean -. truth) /. truth < 0.05)

let test_importance_expected_edges () =
  let g = Generators.complete ~n:10 in
  Alcotest.(check (float 1e-9)) "expected edges"
    22.5
    (Importance.expected_edges_ugraph ~prob:(fun _ _ _ -> 0.5) g)

let test_importance_digraph_weights_scaled () =
  let rng = Prng.create 8 in
  let g = Digraph.of_edges 2 [ (0, 1, 4.0) ] in
  let h = Importance.sample_digraph rng ~prob:(fun _ _ _ -> 0.25) g in
  if Digraph.m h = 1 then check_float "reweighted" 16.0 (Digraph.weight h 0 1)

(* --- Benczúr–Karger --- *)

let test_bk_preserves_cuts () =
  let rng = Prng.create 9 in
  (* Weighted dense graph so sampling actually triggers. *)
  let g = Generators.random_multigraph_weights rng (Generators.complete ~n:40) ~max_weight:20 in
  let eps = 0.3 in
  let h = Benczur_karger.sparsify rng ~eps g in
  let worst = ref 0.0 in
  for _ = 1 to 40 do
    let c = Cut.random rng ~n:40 in
    let truth = Ugraph.cut_value g c in
    let est = Ugraph.cut_value h c in
    worst := Float.max !worst (Float.abs (est -. truth) /. truth)
  done;
  Alcotest.(check bool) "within eps on sampled cuts" true (!worst <= eps)

let test_bk_sparsifies_dense_weighted () =
  let rng = Prng.create 10 in
  let g = Generators.random_multigraph_weights rng (Generators.complete ~n:60) ~max_weight:50 in
  let h = Benczur_karger.sparsify rng ~eps:0.5 g in
  Alcotest.(check bool) "fewer edges" true (Ugraph.m h < Ugraph.m g)

let test_bk_sketch_size_matches_graph () =
  let rng = Prng.create 11 in
  let g = Generators.complete ~n:20 in
  let sk = Benczur_karger.sketch rng ~eps:0.4 g in
  Alcotest.(check bool) "graph-valued" true (sk.Sketch.graph <> None);
  Alcotest.(check bool) "positive size" true (sk.Sketch.size_bits > 0)

let test_bk_expected_edges_formula () =
  let g = Generators.complete ~n:20 in
  let e1 = Benczur_karger.expected_edges ~eps:0.2 g in
  let e2 = Benczur_karger.expected_edges ~eps:0.4 g in
  Alcotest.(check bool) "smaller eps, more edges" true (e1 >= e2)

(* --- For-each sampler --- *)

let test_foreach_sampler_cheaper_than_forall () =
  let rng = Prng.create 12 in
  let g = Generators.random_multigraph_weights rng (Generators.complete ~n:50) ~max_weight:40 in
  let fa = Benczur_karger.expected_edges ~eps:0.3 g in
  let fe = Foreach_sampler.expected_edges ~eps:0.3 g in
  (* For-each drops the ln n union-bound oversampling. *)
  Alcotest.(check bool) "for-each smaller" true (fe < fa)

let test_foreach_sampler_accuracy_on_fixed_cut () =
  let rng = Prng.create 13 in
  let g = Generators.random_multigraph_weights rng (Generators.complete ~n:30) ~max_weight:30 in
  let c = Cut.of_mem ~n:30 (fun v -> v < 15) in
  let truth = Ugraph.cut_value g c in
  let ok = ref 0 in
  let trials = 60 in
  for _ = 1 to trials do
    let h = Foreach_sampler.sparsify rng ~eps:0.25 g in
    if Float.abs (Ugraph.cut_value h c -. truth) /. truth <= 0.25 then incr ok
  done;
  (* For-each guarantee: each fixed cut within (1±O(eps)) w.p. >= 2/3. *)
  Alcotest.(check bool) "success >= 2/3" true
    (float_of_int !ok /. float_of_int trials >= 0.66)

(* --- Directed sparsifiers --- *)

let test_directed_forall_preserves_cuts () =
  let rng = Prng.create 14 in
  let g = Generators.balanced_digraph rng ~n:40 ~p:0.8 ~beta:2.0 ~max_weight:30.0 in
  let sk = Directed_sparsifier.forall_sketch rng ~eps:0.3 ~beta:2.0 g in
  let worst = ref 0.0 in
  for _ = 1 to 30 do
    let c = Cut.random rng ~n:40 in
    worst := Float.max !worst (Sketch.relative_error sk g c)
  done;
  Alcotest.(check bool) "within eps" true (!worst <= 0.3)

let test_directed_foreach_graph_valued () =
  let rng = Prng.create 15 in
  let g = Generators.balanced_digraph rng ~n:20 ~p:0.4 ~beta:4.0 ~max_weight:5.0 in
  let sk = Directed_sparsifier.foreach_sketch rng ~eps:0.3 ~beta:4.0 g in
  Alcotest.(check bool) "graph-valued" true (sk.Sketch.graph <> None)

let test_directed_rejects_bad_params () =
  let rng = Prng.create 16 in
  let g = Generators.balanced_digraph rng ~n:10 ~p:0.3 ~beta:2.0 ~max_weight:2.0 in
  Alcotest.check_raises "beta < 1" (Invalid_argument "Directed_sparsifier: beta >= 1")
    (fun () -> ignore (Directed_sparsifier.forall_sparsify rng ~eps:0.3 ~beta:0.5 g))

(* --- Imbalance decomposition --- *)

let test_imbalance_decomposition_exact () =
  (* (u(S) + Δ(S))/2 = w(S, V\S), identically, on arbitrary digraphs. *)
  let rng = Prng.create 20 in
  for _ = 1 to 20 do
    let g = Generators.random_digraph rng ~n:12 ~p:0.4 ~max_weight:5.0 in
    let c = Cut.random rng ~n:12 in
    check_float "identity" (Cut.value g c) (Imbalance_sketch.exact_decomposition g c)
  done

let test_imbalance_delta_additive () =
  let rng = Prng.create 21 in
  let g = Generators.random_digraph rng ~n:10 ~p:0.4 ~max_weight:3.0 in
  let imb = Imbalance_sketch.imbalances g in
  let a = Cut.of_indices ~n:10 [ 1; 3 ] and b = Cut.of_indices ~n:10 [ 5; 7; 9 ] in
  check_float "additive over disjoint unions"
    (Imbalance_sketch.delta imb (Cut.union a b))
    (Imbalance_sketch.delta imb a +. Imbalance_sketch.delta imb b)

let test_imbalance_sketch_eulerian_zero_delta () =
  (* β = 1 circulations: every imbalance is zero; directed sketching is
     exactly undirected sketching. *)
  let rng = Prng.create 22 in
  let g = Eulerian.random_circulation rng ~n:14 ~cycles:8 ~max_weight:4.0 in
  let imb = Imbalance_sketch.imbalances g in
  Array.iter (fun b -> check_float "zero imbalance" 0.0 b) imb;
  let sk = Imbalance_sketch.create rng ~eps:0.9 ~beta:1.0 g in
  Alcotest.(check bool) "sketch built" true (sk.Sketch.size_bits > 0)

let test_imbalance_sketch_accuracy () =
  let rng = Prng.create 23 in
  let beta = 2.0 in
  let g = Generators.balanced_digraph rng ~n:40 ~p:0.8 ~beta ~max_weight:30.0 in
  let eps = 0.6 in
  let ok = ref 0 in
  let trials = 40 in
  for _ = 1 to trials do
    let sk = Imbalance_sketch.create ~c:1.0 rng ~eps ~beta g in
    let c = Cut.random rng ~n:40 in
    let truth = Cut.value g c in
    if truth > 0.0 && Float.abs (sk.Sketch.query c -. truth) <= eps *. truth then
      incr ok
  done;
  (* for-each guarantee: each cut within (1±eps) with probability >= 2/3 *)
  Alcotest.(check bool) "for-each accuracy" true
    (float_of_int !ok /. float_of_int trials >= 0.67)

let test_imbalance_sketch_exact_sampler_exact_answers () =
  (* With eps_u so large the sampler keeps everything... instead force the
     projection to survive intact by sparse graph: answers become exact. *)
  let rng = Prng.create 24 in
  let g = Generators.balanced_digraph rng ~n:12 ~p:0.2 ~beta:4.0 ~max_weight:2.0 in
  let sk = Imbalance_sketch.create rng ~eps:0.9 ~beta:4.0 g in
  (* sparse graph: strengths ~1, sampler keeps all edges -> exact *)
  let c = Cut.random rng ~n:12 in
  check_float "exact when nothing sampled away" (Cut.value g c) (sk.Sketch.query c)

let prop_imbalance_identity =
  QCheck.Test.make ~name:"directed cut = (u(S) + Δ(S))/2" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Generators.random_digraph rng ~n:9 ~p:0.5 ~max_weight:4.0 in
      let c = Cut.random rng ~n:9 in
      Float.abs (Cut.value g c -. Imbalance_sketch.exact_decomposition g c) < 1e-9)

let test_median_boost_improves_success () =
  let rng = Prng.create 17 in
  let u =
    Generators.random_multigraph_weights rng (Generators.complete ~n:24) ~max_weight:20
  in
  let c = Cut.of_mem ~n:24 (fun v -> v < 12) in
  let truth = Ugraph.cut_value u c in
  let eps = 0.3 in
  let single_ok = ref 0 and boosted_ok = ref 0 in
  let trials = 60 in
  for _ = 1 to trials do
    let mk () =
      let h = Foreach_sampler.sparsify ~c:1.0 rng ~eps u in
      Sketch.of_digraph ~name:"foreach-sampler"
        ~size_bits:(Sketch.ugraph_encoding_bits h) (Ugraph.to_digraph h)
    in
    let single = mk () in
    if Float.abs (single.Sketch.query c -. truth) <= eps *. truth then incr single_ok;
    let boosted = Sketch.median_boost [ mk (); mk (); mk (); mk (); mk () ] in
    if Float.abs (boosted.Sketch.query c -. truth) <= eps *. truth then incr boosted_ok
  done;
  Alcotest.(check bool) "median helps" true (!boosted_ok >= !single_ok);
  Alcotest.(check bool) "boosted strong" true
    (float_of_int !boosted_ok /. float_of_int trials >= 0.75)

let test_median_boost_size_is_sum () =
  let rng = Prng.create 18 in
  let g = Generators.random_digraph rng ~n:8 ~p:0.5 ~max_weight:2.0 in
  let parts = [ Exact_sketch.create g; Exact_sketch.create g; Exact_sketch.create g ] in
  let b = Sketch.median_boost parts in
  Alcotest.(check int) "sum of sizes"
    (3 * (List.hd parts).Sketch.size_bits)
    b.Sketch.size_bits

(* Unbiasedness of the directed sampler on a fixed directed cut. *)
let prop_directed_sampler_unbiased =
  QCheck.Test.make ~name:"directed sampler unbiased on fixed cut" ~count:10
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Generators.balanced_digraph rng ~n:16 ~p:0.5 ~beta:2.0 ~max_weight:10.0 in
      let c = Cut.random rng ~n:16 in
      let truth = Cut.value g c in
      let acc = ref 0.0 in
      let trials = 400 in
      for _ = 1 to trials do
        let h = Directed_sparsifier.foreach_sparsify ~c:2.0 rng ~eps:0.9 ~beta:2.0 g in
        acc := !acc +. Cut.value h c
      done;
      (* statistical tolerance: relative plus absolute slack *)
      Float.abs ((!acc /. float_of_int trials) -. truth) < (0.15 *. truth) +. 2.0)

let suite =
  [
    Alcotest.test_case "exact sketch: exact" `Quick test_exact_sketch_is_exact;
    Alcotest.test_case "exact sketch: size" `Quick test_exact_sketch_size_positive;
    Alcotest.test_case "exact sketch: isolation" `Quick test_exact_sketch_independent_of_mutation;
    Alcotest.test_case "sketch: encoding monotone" `Quick test_encoding_bits_monotone;
    Alcotest.test_case "sketch: relative error" `Quick test_relative_error;
    Alcotest.test_case "sketch: relative error zero branches" `Quick
      test_relative_error_zero_branches;
    Alcotest.test_case "noisy oracle: bounds" `Quick test_noisy_oracle_bounds;
    Alcotest.test_case "noisy oracle: deterministic" `Quick test_noisy_oracle_deterministic_modes;
    Alcotest.test_case "noisy oracle: eps 0" `Quick test_noisy_oracle_zero_eps_exact;
    Alcotest.test_case "noisy oracle: zero-weight cut" `Quick test_noisy_oracle_zero_weight_cut;
    Alcotest.test_case "noisy oracle: extreme noise" `Quick test_noisy_oracle_extreme_noise;
    Alcotest.test_case "noisy oracle: rejects bad eps" `Quick test_noisy_oracle_rejects_bad_eps;
    Alcotest.test_case "frame bits: encoding + checksum" `Quick test_frame_bits_are_encoding_plus_checksum;
    Alcotest.test_case "strength: tree" `Quick test_strength_tree_all_one;
    Alcotest.test_case "strength: complete graph" `Quick test_strength_complete_graph;
    Alcotest.test_case "strength: weighted multiplicity" `Quick test_strength_weighted_multiplicity;
    Alcotest.test_case "strength: not found" `Quick test_strength_not_found;
    Alcotest.test_case "strength: fold sorted" `Quick test_strength_fold_sorted;
    Alcotest.test_case "strength: max rounds cap" `Quick test_strength_max_rounds_cap;
    Alcotest.test_case "strength: golden fold and certificate" `Quick test_strength_golden;
    QCheck_alcotest.to_alcotest prop_strength_below_connectivity;
    QCheck_alcotest.to_alcotest prop_connectivity_estimates_sound;
    QCheck_alcotest.to_alcotest prop_adjacency_tier_sound;
    Alcotest.test_case "connectivity: exact when uncapped" `Quick test_connectivity_exact_when_uncapped;
    Alcotest.test_case "connectivity: golden estimates" `Quick test_connectivity_golden;
    QCheck_alcotest.to_alcotest prop_connectivity_stats_add_up;
    Alcotest.test_case "connectivity: rejects foreign strengths" `Quick
      test_connectivity_rejects_foreign_strengths;
    Alcotest.test_case "binomial keep: identity" `Quick test_binomial_keep_identity;
    Alcotest.test_case "binomial keep: expectation" `Quick test_binomial_keep_expectation;
    Alcotest.test_case "binomial keep: determinism" `Quick test_binomial_keep_deterministic;
    QCheck_alcotest.to_alcotest prop_canonical_edges;
    Alcotest.test_case "importance: keep all" `Quick test_importance_keep_all;
    Alcotest.test_case "importance: drop all" `Quick test_importance_drop_all;
    Alcotest.test_case "importance: unbiased" `Quick test_importance_unbiased_cut;
    Alcotest.test_case "importance: expected edges" `Quick test_importance_expected_edges;
    Alcotest.test_case "importance: reweighting" `Quick test_importance_digraph_weights_scaled;
    Alcotest.test_case "bk: preserves cuts" `Quick test_bk_preserves_cuts;
    Alcotest.test_case "bk: sparsifies dense weighted" `Quick test_bk_sparsifies_dense_weighted;
    Alcotest.test_case "bk: sketch shape" `Quick test_bk_sketch_size_matches_graph;
    Alcotest.test_case "bk: expected edges monotone" `Quick test_bk_expected_edges_formula;
    Alcotest.test_case "foreach sampler: cheaper than for-all" `Quick test_foreach_sampler_cheaper_than_forall;
    Alcotest.test_case "foreach sampler: per-cut accuracy" `Quick test_foreach_sampler_accuracy_on_fixed_cut;
    Alcotest.test_case "directed: for-all preserves cuts" `Quick test_directed_forall_preserves_cuts;
    Alcotest.test_case "directed: for-each graph-valued" `Quick test_directed_foreach_graph_valued;
    Alcotest.test_case "directed: param validation" `Quick test_directed_rejects_bad_params;
    Alcotest.test_case "imbalance: exact decomposition" `Quick test_imbalance_decomposition_exact;
    Alcotest.test_case "imbalance: delta additive" `Quick test_imbalance_delta_additive;
    Alcotest.test_case "imbalance: eulerian zero delta" `Quick test_imbalance_sketch_eulerian_zero_delta;
    Alcotest.test_case "imbalance: for-each accuracy" `Quick test_imbalance_sketch_accuracy;
    Alcotest.test_case "imbalance: exact on sparse" `Quick test_imbalance_sketch_exact_sampler_exact_answers;
    QCheck_alcotest.to_alcotest prop_imbalance_identity;
    Alcotest.test_case "median boost: improves success" `Quick test_median_boost_improves_success;
    Alcotest.test_case "median boost: size" `Quick test_median_boost_size_is_sum;
    QCheck_alcotest.to_alcotest prop_directed_sampler_unbiased;
  ]
