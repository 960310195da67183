(* Cross-solver equivalence: every global min-cut algorithm in the library
   is an independent implementation of the same quantity, so on random
   weighted graphs they must all agree — Dinic (min over s-t max-flows),
   Stoer-Wagner, Gomory-Hu (lightest tree edge), and brute-force
   enumeration exactly; Karger and Karger-Stein with probability checked
   over seeds. Any solver drifting from the pack fails here with the seed
   that exposes it. *)

open Dcs

let check_float = Alcotest.(check (float 1e-9))

(* Random connected graph with integer weights in 1..max_weight; n small
   enough for Brute. *)
let random_weighted_graph rng ~n ~p ~max_weight =
  let g = Generators.erdos_renyi_connected rng ~n ~p in
  Generators.random_multigraph_weights rng g ~max_weight

(* Global min cut via Dinic: the minimum cut separates vertex 0 from some
   other vertex, so it is the min over t <> 0 of the 0-t max-flow. *)
let dinic_global_mincut g =
  let net = Dinic.of_ugraph g in
  let best = ref infinity and side = ref None in
  for t = 1 to Ugraph.n g - 1 do
    let f, s = Dinic.mincut_side net ~s:0 ~t in
    if f < !best then begin
      best := f;
      side := Some s
    end
  done;
  (!best, Option.get !side)

let test_exact_solvers_agree () =
  let rng = Prng.create 101 in
  for trial = 1 to 20 do
    let n = 6 + Prng.int rng 5 in
    let g = random_weighted_graph rng ~n ~p:0.35 ~max_weight:6 in
    let ctx = Printf.sprintf "trial %d (n=%d)" trial n in
    let bf, _ = Brute.mincut_ugraph g in
    let sw, sw_cut = Stoer_wagner.mincut g in
    let dv, d_cut = dinic_global_mincut g in
    let ghv, gh_cut = Gomory_hu.global_min_cut (Gomory_hu.build g) in
    check_float (ctx ^ ": stoer-wagner = brute") bf sw;
    check_float (ctx ^ ": dinic = brute") bf dv;
    check_float (ctx ^ ": gomory-hu = brute") bf ghv;
    (* Every witness actually achieves the claimed value on g. *)
    check_float (ctx ^ ": sw witness") sw (Ugraph.cut_value g sw_cut);
    check_float (ctx ^ ": dinic witness") dv (Ugraph.cut_value g d_cut);
    check_float (ctx ^ ": gomory-hu witness") ghv (Ugraph.cut_value g gh_cut)
  done

let test_randomized_solvers_agree_whp () =
  (* Karger (150 trials) and Karger-Stein (default runs) each find the true
     minimum with high probability on these sizes; across 12 seeds demand
     near-perfect agreement and never a value below the truth. *)
  let rng = Prng.create 202 in
  let seeds = 12 in
  let karger_hits = ref 0 and ks_hits = ref 0 in
  for seed = 1 to seeds do
    let g = random_weighted_graph rng ~n:12 ~p:0.3 ~max_weight:5 in
    let truth, _ = Brute.mincut_ugraph g in
    let kv, kc = Karger.mincut (Prng.create (1000 + seed)) ~trials:150 g in
    let ksv, ksc = Karger_stein.mincut (Prng.create (2000 + seed)) g in
    let ctx = Printf.sprintf "seed %d" seed in
    Alcotest.(check bool) (ctx ^ ": karger upper bound") true (kv >= truth -. 1e-9);
    Alcotest.(check bool) (ctx ^ ": ks upper bound") true (ksv >= truth -. 1e-9);
    check_float (ctx ^ ": karger witness") kv (Ugraph.cut_value g kc);
    check_float (ctx ^ ": ks witness") ksv (Ugraph.cut_value g ksc);
    if Float.abs (kv -. truth) < 1e-9 then incr karger_hits;
    if Float.abs (ksv -. truth) < 1e-9 then incr ks_hits
  done;
  Alcotest.(check bool)
    (Printf.sprintf "karger agreement %d/%d" !karger_hits seeds)
    true
    (!karger_hits >= seeds - 1);
  Alcotest.(check bool)
    (Printf.sprintf "karger-stein agreement %d/%d" !ks_hits seeds)
    true
    (!ks_hits >= seeds - 1)

let test_structured_families () =
  (* Families with known min cuts: all solvers, closed-form answer. *)
  let families =
    [
      ("cycle n=9", Generators.cycle ~n:9, 2.0);
      ("complete n=7", Generators.complete ~n:7, 6.0);
      ("hypercube d=3", Generators.hypercube ~dim:3, 3.0);
      ("grid 3x4", Generators.grid ~rows:3 ~cols:4, 2.0);
    ]
  in
  List.iter
    (fun (name, g, expected) ->
      check_float (name ^ ": stoer-wagner") expected (Stoer_wagner.mincut_value g);
      check_float (name ^ ": dinic") expected (fst (dinic_global_mincut g));
      check_float (name ^ ": gomory-hu") expected
        (fst (Gomory_hu.global_min_cut (Gomory_hu.build g)));
      check_float (name ^ ": brute") expected (fst (Brute.mincut_ugraph g));
      let kv, _ = Karger.mincut (Prng.create 77) ~trials:200 g in
      check_float (name ^ ": karger") expected kv)
    families

(* qcheck: the four exact solvers agree on arbitrary random weighted
   graphs (seed-driven shrinkable instances, complementing the fixed-seed
   loop above). *)
let prop_exact_agreement =
  QCheck.Test.make ~name:"exact global min-cut solvers agree" ~count:30
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = random_weighted_graph rng ~n:8 ~p:0.4 ~max_weight:4 in
      let bf, _ = Brute.mincut_ugraph g in
      let sw = Stoer_wagner.mincut_value g in
      let dv, _ = dinic_global_mincut g in
      let ghv, _ = Gomory_hu.global_min_cut (Gomory_hu.build g) in
      Float.abs (sw -. bf) < 1e-9
      && Float.abs (dv -. bf) < 1e-9
      && Float.abs (ghv -. bf) < 1e-9)

(* qcheck: a Karger candidate enumeration at factor >= 1 always contains a
   witness of the exact minimum when the trial budget is generous. *)
let prop_karger_candidates_contain_minimum =
  QCheck.Test.make ~name:"karger candidates contain the minimum" ~count:15
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = random_weighted_graph rng ~n:9 ~p:0.4 ~max_weight:3 in
      let truth, _ = Brute.mincut_ugraph g in
      let cands = Karger.candidate_cuts (Prng.create (seed + 1)) ~trials:200 ~factor:1.5 g in
      List.exists (fun (v, _) -> Float.abs (v -. truth) < 1e-9) cands)

(* --- Degenerate-shape corpus --- *)

(* Test-only copy of the dense Stoer–Wagner the library shipped before its
   exact solver became Nagamochi–Ibaraki contraction over the frozen rows:
   an n×n matrix, O(n³) maximum-adjacency phases, the cut of each phase
   against the best so far. It is the reference every exact path of the
   corpus is diffed against. *)
let dense_stoer_wagner g =
  let n = Ugraph.n g in
  let w = Array.make_matrix n n 0.0 in
  let csr = Csr.of_ugraph g in
  for u = 0 to n - 1 do
    Csr.iter_out csr u (fun v x -> w.(u).(v) <- w.(u).(v) +. x)
  done;
  let group = Array.init n (fun v -> [ v ]) in
  let active = Array.make n true in
  let best_value = ref infinity and best_side = ref [] in
  let remaining = ref n in
  while !remaining > 1 do
    let in_a = Array.make n false and conn = Array.make n 0.0 in
    let prev = ref (-1) and last = ref (-1) in
    for _step = 1 to !remaining do
      let sel = ref (-1) in
      for v = 0 to n - 1 do
        if active.(v) && not in_a.(v) then
          if !sel < 0 || conn.(v) > conn.(!sel) then sel := v
      done;
      let v = !sel in
      in_a.(v) <- true;
      prev := !last;
      last := v;
      for u = 0 to n - 1 do
        if active.(u) && not in_a.(u) then conn.(u) <- conn.(u) +. w.(v).(u)
      done
    done;
    let s = !last and t = !prev in
    let phase_value = ref 0.0 in
    for u = 0 to n - 1 do
      if active.(u) && u <> s then phase_value := !phase_value +. w.(s).(u)
    done;
    if !phase_value < !best_value then begin
      best_value := !phase_value;
      best_side := group.(s)
    end;
    for u = 0 to n - 1 do
      if active.(u) && u <> s && u <> t then begin
        w.(t).(u) <- w.(t).(u) +. w.(s).(u);
        w.(u).(t) <- w.(u).(t) +. w.(u).(s)
      end
    done;
    group.(t) <- group.(s) @ group.(t);
    active.(s) <- false;
    decr remaining
  done;
  (!best_value, Cut.of_indices ~n !best_side)

(* A corpus graph: [integral] graphs carry integer weights, on which every
   exact path must agree bit for bit; the others within 1e-9 relative. *)
type shape = { name : string; g : Ugraph.t; integral : bool }

let shape ?(integral = true) name g = { name; g; integral }

let weighted n es = Ugraph.of_edges n es

(* Every edge of [g] re-weighted by [draw]. *)
let reweight rng g draw =
  let h = Ugraph.create (Ugraph.n g) in
  Array.iter (fun (u, v, _) -> Ugraph.set_edge h u v (draw rng)) (Ugraph.edges g);
  h

(* 10^x for x uniform in [-3, 6]: weights from 1e-3 to 1e6. *)
let heavy_tailed rng = 10.0 ** (-3.0 +. Prng.float rng 9.0)
let fractional rng = 0.1 +. Prng.float rng 4.9

let star ~n w = weighted n (List.init (n - 1) (fun i -> (0, i + 1, w (i + 1))))
let path ~n w = weighted n (List.init (n - 1) (fun i -> (i, i + 1, w i)))

let cycle ~n w =
  weighted n (List.init n (fun i -> (i, (i + 1) mod n, w i)))

(* The same pair added several times: [add_edge] sums the copies into one
   edge, so the solvers must see the sum. *)
let parallel () =
  let g = Ugraph.create 5 in
  List.iter
    (fun (u, v, w) -> Ugraph.add_edge g u v w)
    [
      (0, 1, 1.0); (1, 0, 2.0); (0, 1, 3.0); (1, 2, 1.0); (2, 1, 1.0);
      (2, 3, 5.0); (3, 4, 1.0); (4, 3, 1.0); (4, 0, 2.0); (1, 3, 1.0);
    ];
  g

let corpus () =
  let rng = Prng.create 4242 in
  let int_w i = float_of_int (1 + (i * 7 mod 5)) in
  let random_shapes kind draw =
    List.init 6 (fun i ->
        let n = 2 + Prng.int rng 13 in
        let g0 = Generators.erdos_renyi_connected rng ~n ~p:0.35 in
        shape ~integral:false (Printf.sprintf "%s G(%d, 0.35) #%d" kind n i)
          (reweight rng g0 draw))
  in
  [
    shape "n=2, one edge" (weighted 2 [ (0, 1, 3.0) ]);
    shape "n=2, no edge" (Ugraph.create 2);
    shape "isolated vertex"
      (weighted 5 [ (0, 1, 2.0); (1, 2, 2.0); (2, 0, 1.0); (0, 3, 4.0) ]);
    shape "two components"
      (weighted 6 [ (0, 1, 1.0); (1, 2, 1.0); (2, 0, 1.0); (3, 4, 2.0); (4, 5, 2.0); (5, 3, 2.0) ]);
    shape "star n=9" (star ~n:9 int_w);
    shape "star n=2" (star ~n:2 int_w);
    shape "path n=10" (path ~n:10 int_w);
    shape "path n=20, unit" (Generators.path ~n:20);
    shape "cycle n=12" (cycle ~n:12 int_w);
    shape "cycle n=16, unit" (Generators.cycle ~n:16);
    shape "parallel edges" (parallel ());
    shape ~integral:false "star n=7, heavy-tailed" (reweight rng (star ~n:7 int_w) heavy_tailed);
    shape ~integral:false "path n=9, heavy-tailed" (reweight rng (path ~n:9 int_w) heavy_tailed);
    shape ~integral:false "cycle n=10, fractional" (reweight rng (cycle ~n:10 int_w) fractional);
  ]
  @ random_shapes "heavy-tailed" heavy_tailed
  @ random_shapes "fractional" fractional
  @ List.init 6 (fun i ->
        let n = 2 + Prng.int rng 13 in
        shape (Printf.sprintf "integer G(%d, 0.4) #%d" n i)
          (random_weighted_graph rng ~n ~p:0.4 ~max_weight:9))

(* Exact on integer weights, 1e-9 relative on the rest. *)
let same { integral; _ } a b =
  if integral then a = b
  else Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let at_least s truth v = v >= truth || same s truth v

let check_witness s ctx value cut =
  Alcotest.(check bool) (ctx ^ ": witness is proper") true (Cut.is_proper cut);
  Alcotest.(check bool)
    (Printf.sprintf "%s: witness weighs %.17g, value %.17g" ctx
       (Ugraph.cut_value s.g cut) value)
    true
    (same s value (Ugraph.cut_value s.g cut))

(* Brute, Stoer–Wagner, Dinic and Gomory–Hu against the dense reference
   on every shape; Gomory–Hu declares connected inputs only and must
   refuse the others. *)
let test_corpus_exact () =
  List.iter
    (fun s ->
      let truth, ref_cut = dense_stoer_wagner s.g in
      check_witness s (s.name ^ ": dense reference") truth ref_cut;
      let agree what (v, cut) =
        let ctx = Printf.sprintf "%s: %s" s.name what in
        Alcotest.(check bool)
          (Printf.sprintf "%s = %.17g (reference %.17g)" ctx v truth)
          true (same s truth v);
        check_witness s ctx v cut
      in
      agree "brute" (Brute.mincut_ugraph s.g);
      agree "stoer-wagner" (Stoer_wagner.mincut s.g);
      Alcotest.(check bool)
        (s.name ^ ": mincut_value") true
        (same s truth (Stoer_wagner.mincut_value s.g));
      agree "dinic" (dinic_global_mincut s.g);
      if Traversal.is_connected s.g then
        agree "gomory-hu" (Gomory_hu.global_min_cut (Gomory_hu.build s.g))
      else begin
        Alcotest.(check bool) (s.name ^ ": disconnected min cut is 0") true (truth = 0.0);
        match Gomory_hu.build s.g with
        | _ -> Alcotest.failf "%s: gomory-hu accepted a disconnected graph" s.name
        | exception Invalid_argument _ -> ()
      end)
    (corpus ())

(* The randomized paths on the connected shapes (each declares connected
   inputs): every answer is a real cut, never below the minimum, and its
   value is its witness's weight. Hit counts — runs that found the
   minimum — are printed; Karger (200 trials) and Karger–Stein (default
   runs) may miss one shape each, a failure rate their per-run success
   bounds allow on graphs this small. Partial_mincut's sparse answer is
   certified within ε (here 0.25) and otherwise repaired by the exact
   solver, so it never leaves (1+ε)/(1−ε) of the minimum. The zero-fault
   Coordinator, over three random shards, estimates from its for-each
   sketches: it must answer with a proper cut everywhere, and within
   (1 ± ε) on integer weights — its samplers round a weight to an integer
   multiplicity (strength.mli), so a sub-unit bridge is kept only with
   probability below 1. *)
let test_corpus_randomized () =
  let shapes = List.filter (fun s -> Traversal.is_connected s.g) (corpus ()) in
  let total = List.length shapes in
  let eps = 0.25 in
  let hits = Hashtbl.create 8 in
  let record name s truth (v, cut) ~slack =
    let ctx = Printf.sprintf "%s: %s" s.name name in
    Alcotest.(check bool) (ctx ^ ": never below the minimum") true (at_least s truth v);
    Alcotest.(check bool) (ctx ^ ": within its bound") true (v <= (slack *. truth) || same s truth v);
    check_witness s ctx v cut;
    let h = Option.value (Hashtbl.find_opt hits name) ~default:0 in
    Hashtbl.replace hits name (if same s truth v then h + 1 else h)
  in
  List.iteri
    (fun i s ->
      let truth = fst (dense_stoer_wagner s.g) in
      let rng k = Prng.create ((100 * i) + k) in
      record "karger" s truth ~slack:infinity (Karger.mincut (rng 1) ~trials:200 s.g);
      record "karger-stein" s truth ~slack:infinity (Karger_stein.mincut (rng 2) s.g);
      List.iter
        (fun (name, solver) ->
          let r = Partial_mincut.mincut ~rho:4.0 (rng 3) ~eps ~solver s.g in
          record ("partial/" ^ name) s truth
            ~slack:((1.0 +. eps) /. (1.0 -. eps))
            (r.Partial_mincut.value, r.Partial_mincut.cut))
        [
          ("karger", Partial_mincut.Karger { trials = 200 });
          ("karger-stein", Partial_mincut.Karger_stein { runs = None });
          ("stoer-wagner", Partial_mincut.Stoer_wagner);
        ];
      let shards = Partition.random (rng 5) ~servers:3 s.g in
      let r = Coordinator.min_cut (rng 4) (Coordinator.default_config ~eps) shards in
      let ctx = s.name ^ ": coordinator" in
      let v = r.Coordinator.estimate in
      Alcotest.(check bool) (ctx ^ ": cut is proper") true (Cut.is_proper r.Coordinator.cut);
      if s.integral then
        Alcotest.(check bool)
          (Printf.sprintf "%s: estimate %g within (1 ± %g) of %g" ctx v eps truth)
          true
          (Float.abs (v -. truth) <= eps *. truth);
      let h = Option.value (Hashtbl.find_opt hits "coordinator") ~default:0 in
      Hashtbl.replace hits "coordinator" (if same s truth v then h + 1 else h))
    shapes;
  let count name = Option.value (Hashtbl.find_opt hits name) ~default:0 in
  List.iter
    (fun name -> Printf.printf "corpus hits: %-22s %d/%d\n" name (count name) total)
    [
      "karger"; "karger-stein"; "partial/karger"; "partial/karger-stein";
      "partial/stoer-wagner"; "coordinator";
    ];
  Alcotest.(check bool)
    (Printf.sprintf "karger hits %d/%d" (count "karger") total)
    true
    (count "karger" >= total - 1);
  Alcotest.(check bool)
    (Printf.sprintf "karger-stein hits %d/%d" (count "karger-stein") total)
    true
    (count "karger-stein" >= total - 1)

(* λ̂ <= λ on every edge of every integer-weighted shape, at a cap below,
   near and above the shapes' connectivities and uncapped. The tiers that
   count rounded multiplicities are exact lower bounds only on integer
   weights (connectivity.mli), so fractional shapes sit this one out. *)
let test_corpus_certificate () =
  List.iter
    (fun s ->
      let net = Dinic.of_ugraph s.g in
      List.iter
        (fun cap ->
          let conn = Connectivity.estimate_ugraph ~cap s.g in
          let k = ref 0 in
          Connectivity.iter conn (fun u v _ est ->
              let lambda = Dinic.maxflow net ~s:u ~t:v in
              if est > lambda || est > cap then
                Alcotest.failf "%s, cap %g: λ̂(%d, %d) = %g > min(λ %g, cap)" s.name
                  cap u v est lambda;
              incr k);
          Alcotest.(check int) (s.name ^ ": every edge estimated") (Ugraph.m s.g) !k)
        [ 1.0; 3.0; 12.0; infinity ])
    (List.filter (fun s -> s.integral) (corpus ()))

let suite =
  [
    Alcotest.test_case "agreement: exact solvers, random graphs" `Quick
      test_exact_solvers_agree;
    Alcotest.test_case "corpus: exact paths = dense reference" `Quick
      test_corpus_exact;
    Alcotest.test_case "corpus: randomized paths within their bounds" `Quick
      test_corpus_randomized;
    Alcotest.test_case "corpus: λ̂ <= λ on every edge" `Quick
      test_corpus_certificate;
    Alcotest.test_case "agreement: randomized solvers whp" `Quick
      test_randomized_solvers_agree_whp;
    Alcotest.test_case "agreement: structured families" `Quick
      test_structured_families;
    QCheck_alcotest.to_alcotest prop_exact_agreement;
    QCheck_alcotest.to_alcotest prop_karger_candidates_contain_minimum;
  ]
