(* The solvers routed through the batched kernels must be byte-identical
   to their specification paths: Forall_lb's block-buffered flip_sweep
   decoder vs the one-query-per-subset enumeration (and its trial battery
   across domain counts), and Brute's cut_many mask blocks vs a naive
   per-cut loop. Also pins the lifted enumerate guard. *)

open Dcs
module F = Forall_lb

let small_params () = F.make_params ~beta:2 ~inv_eps_sq:8 32
(* block k = 16, chains = 2. *)

let random_inst seed p = F.random_instance (Prng.create seed) p

let test_decode_frozen_matches_query_path () =
  let p = small_params () in
  let scratch = F.decode_scratch p in
  for seed = 50 to 59 do
    let inst = random_inst seed p in
    let g = inst.F.graph in
    let t = inst.F.gh.Gap_hamming.t in
    let by_query =
      F.decode_enumerate p ~query:(fun s -> Cut.value g s) inst.F.target ~t
    in
    let csr = Csr.of_digraph g in
    let fresh = F.decode_enumerate_frozen p csr inst.F.target ~t in
    let reused = F.decode_enumerate_frozen ~scratch p csr inst.F.target ~t in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: frozen = query path" seed)
      true (fresh = by_query);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: scratch reuse is stateless" seed)
      true (reused = by_query)
  done

let test_enumerate_guard_lifted () =
  Alcotest.(check int) "guard past 26" 28 F.enumerate_guard;
  Alcotest.(check int) "query guard unchanged" 20 F.enumerate_query_guard;
  (* k = 28 params are now constructible and pass the guard check (the
     k = 28 decode itself runs in E20; here we keep k <= 16). *)
  let p28 = F.make_params ~beta:1 ~inv_eps_sq:28 56 in
  Alcotest.(check int) "k = 28" 28 (F.block_size p28);
  (* k = 32 still refuses *)
  let p32 = F.make_params ~beta:4 ~inv_eps_sq:8 64 in
  let inst = random_inst 60 p32 in
  Alcotest.check_raises "k = 32 refused"
    (Invalid_argument "Forall_lb.decode_enumerate: k too large (> 28)")
    (fun () ->
      ignore
        (F.decode_enumerate_frozen p32
           (Csr.of_digraph inst.F.graph)
           inst.F.target ~t:inst.F.gh.Gap_hamming.t))

let test_decode_scratch_params_check () =
  let p = small_params () in
  let other = F.make_params ~beta:2 ~inv_eps_sq:8 64 in
  let inst = random_inst 61 p in
  Alcotest.check_raises "scratch from other params"
    (Invalid_argument "Forall_lb.decode_enumerate: scratch built for other params")
    (fun () ->
      ignore
        (F.decode_enumerate_frozen ~scratch:(F.decode_scratch other) p
           (Csr.of_digraph inst.F.graph)
           inst.F.target ~t:inst.F.gh.Gap_hamming.t))

let test_run_trials_domain_invariant () =
  let p = small_params () in
  let run d =
    Domains_env.with_domains d (fun () ->
        F.run_trials (Prng.create 62) p
          ~sketch_of:(fun _ inst -> Exact_sketch.create inst.F.graph)
          ~decoder:`Enumerate ~trials:10)
  in
  let reference = run 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool) (Printf.sprintf "domains=%d" d) true (run d = reference))
    [ 2; 4 ]

(* --- Brute through cut_many --- *)

let naive_mincut_ugraph g =
  let n = Ugraph.n g in
  let best = ref infinity and best_mask = ref (-1) in
  for mask = 0 to (1 lsl (n - 1)) - 1 do
    let mem v = v = 0 || (mask lsr (v - 1)) land 1 = 1 in
    let c = Cut.of_mem ~n mem in
    if Cut.is_proper c then begin
      let v = Ugraph.cut_value g c in
      if v < !best then begin
        best := v;
        best_mask := mask
      end
    end
  done;
  (!best, !best_mask)

let prop_brute_matches_naive =
  QCheck.Test.make ~name:"Brute (cut_many blocks) = naive per-cut argmin"
    ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 8 in
      let g0 = Generators.erdos_renyi_connected rng ~n ~p:0.5 in
      let g = Generators.random_multigraph_weights rng g0 ~max_weight:7 in
      let v, c = Brute.mincut_ugraph g in
      let nv, nmask = naive_mincut_ugraph g in
      v = nv
      && Cut.equal c
           (Cut.of_mem ~n (fun x -> x = 0 || (nmask lsr (x - 1)) land 1 = 1)))

let test_brute_digraph_still_agrees_with_directed_values () =
  (* spot check vs hand-computed directed min over both orientations *)
  let g = Digraph.of_edges 3 [ (0, 1, 1.0); (1, 2, 3.0); (2, 0, 5.0) ] in
  let v, _ = Brute.mincut_digraph g in
  Alcotest.(check (float 0.0)) "directed brute value" 1.0 v

let suite =
  [
    Alcotest.test_case "forall: frozen decoder = query path" `Quick
      test_decode_frozen_matches_query_path;
    Alcotest.test_case "forall: guard lifted to 28" `Quick
      test_enumerate_guard_lifted;
    Alcotest.test_case "forall: scratch params check" `Quick
      test_decode_scratch_params_check;
    Alcotest.test_case "forall: run_trials domain-invariant (Enumerate)" `Quick
      test_run_trials_domain_invariant;
    Alcotest.test_case "brute: digraph spot check" `Quick
      test_brute_digraph_still_agrees_with_directed_values;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_brute_matches_naive ]
