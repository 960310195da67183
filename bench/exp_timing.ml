(* E10 — Bechamel micro-benchmarks for the core algorithms. One Test.make
   per substrate operation; results reported as estimated ns per run via
   OLS on the monotonic clock. *)

open Bechamel
open Toolkit
open Dcs

let make_fixtures () =
  let rng = Prng.create 1234 in
  let ug = Generators.erdos_renyi_connected rng ~n:120 ~p:0.2 in
  let wg = Generators.random_multigraph_weights rng ug ~max_weight:10 in
  let dg = Generators.balanced_digraph rng ~n:80 ~p:0.2 ~beta:2.0 ~max_weight:5.0 in
  let fe_params = Foreach_lb.make_params ~beta:4 ~inv_eps:8 64 in
  let fe_inst = Foreach_lb.random_instance rng fe_params in
  let fe_sketch = Exact_sketch.create fe_inst.Foreach_lb.graph in
  let x = Bitstring.random rng 1024 and y = Bitstring.random rng 1024 in
  (rng, ug, wg, dg, fe_params, fe_inst, fe_sketch, x, y)

let tests () =
  let rng, ug, wg, dg, fe_params, _fe_inst, fe_sketch, x, y = make_fixtures () in
  let bench_rng = Prng.create 555 in
  [
    Test.make ~name:"stoer-wagner n=120"
      (Staged.stage (fun () -> ignore (Stoer_wagner.mincut_value ug)));
    Test.make ~name:"karger run n=120"
      (Staged.stage (fun () -> ignore (Karger.run_once bench_rng ug)));
    Test.make ~name:"dinic edge-connectivity n=120"
      (Staged.stage (fun () -> ignore (Dinic.edge_connectivity ug)));
    Test.make ~name:"ni-strengths weighted n=120"
      (Staged.stage (fun () -> ignore (Strength.compute wg)));
    Test.make ~name:"bk sparsify n=120 eps=0.3"
      (Staged.stage (fun () -> ignore (Benczur_karger.sparsify bench_rng ~eps:0.3 wg)));
    Test.make ~name:"directed forall sparsify n=80"
      (Staged.stage (fun () ->
           ignore (Directed_sparsifier.forall_sparsify bench_rng ~eps:0.3 ~beta:2.0 dg)));
    Test.make ~name:"§3 encode n=64 beta=4 1/eps=8"
      (Staged.stage (fun () -> ignore (Foreach_lb.random_instance rng fe_params)));
    Test.make ~name:"§3 decode one bit (4 cut queries)"
      (Staged.stage (fun () ->
           ignore
             (Foreach_lb.decode_bit fe_params ~query:fe_sketch.Sketch.query 17)));
    Test.make ~name:"gxy build N=1024"
      (Staged.stage (fun () -> ignore (Gxy.build ~x ~y)));
    Test.make ~name:"gomory-hu tree n=60"
      (Staged.stage
         (let small = Generators.erdos_renyi_connected (Prng.create 77) ~n:60 ~p:0.2 in
          fun () -> ignore (Gomory_hu.build small)));
    Test.make ~name:"karger-stein run n=60"
      (Staged.stage
         (let small = Generators.erdos_renyi_connected (Prng.create 78) ~n:60 ~p:0.2 in
          fun () -> ignore (Karger_stein.run_once bench_rng small)));
    Test.make ~name:"laplacian CG solve n=120"
      (Staged.stage
         (let l = Laplacian.of_ugraph ug in
          let b =
            let v = Array.init 120 (fun i -> if i = 0 then 1.0 else 0.0) in
            v.(1) <- -1.0;
            v
          in
          fun () -> ignore (Laplacian.solve l b)));
    Test.make ~name:"l0 sampler update"
      (Staged.stage
         (let s = L0_sampler.create (Prng.create 9) ~universe:16384 in
          let i = ref 0 in
          fun () ->
            incr i;
            L0_sampler.update s (!i mod 16384) 1));
    Test.make ~name:"hadamard superpose k=6"
      (Staged.stage
         (let m = Decode_matrix.create ~k:6 in
          let z = Array.init (Decode_matrix.rows m) (fun _ -> Prng.sign bench_rng) in
          fun () -> ignore (Decode_matrix.superpose m z)));
  ]

(* Wall-clock of the parallelized Karger trial loop vs domain count. The
   mincut value/cut must be identical at every domain count (the Pool
   determinism guarantee); wall-clock speedup tracks the physical cores
   available, so on a single-core container every row times ~the same. *)
let karger_parallel_table () =
  let g =
    Generators.erdos_renyi_connected (Prng.create 31415) ~n:200 ~p:0.05
  in
  let trials = 48 in
  let time_run domains =
    let rng = Prng.create 2718 in
    let (v, c), s =
      Common.time (fun () -> Karger.mincut ~domains rng ~trials g)
    in
    (s, v, c)
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "parallel Karger trial loop: n=200, %d trials (recommended domains \
            here: %d)"
           trials Common.cores)
      ~columns:[ "domains"; "wall s"; "speedup"; "mincut"; "same as 1 domain" ]
  in
  let base_s, base_v, base_c = time_run 1 in
  List.iter
    (fun d ->
      let s, v, c = if d = 1 then (base_s, base_v, base_c) else time_run d in
      Table.add_row t
        [
          Table.fint d;
          Printf.sprintf "%.3f" s;
          Printf.sprintf "%.2fx" (base_s /. s);
          Table.ffloat ~digits:1 v;
          Table.fbool (v = base_v && Cut.equal c base_c);
        ])
    Common.domain_grid;
  Table.print t;
  Common.note
    "every row must report the same cut: trial t draws from Prng.split(master, t)";
  Common.note
    "and the reduction runs in trial order, so DCS_DOMAINS only changes wall-clock."

let run () =
  Common.section "E10  Timing — Bechamel micro-benchmarks (ns per run, OLS)";
  karger_parallel_table ();
  print_newline ();
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 1.0) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let t = Table.create ~title:"core operations" ~columns:[ "benchmark"; "ns/run"; "r²" ] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let result = Benchmark.run cfg instances elt in
          let ols =
            Analyze.OLS.ols ~bootstrap:0 ~r_square:true ~responder:"monotonic-clock"
              ~predictors:[| "run" |] result.Benchmark.lr
          in
          let est =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> Printf.sprintf "%.0f" e
            | _ -> "n/a"
          in
          let r2 =
            match Analyze.OLS.r_square ols with
            | Some r -> Printf.sprintf "%.3f" r
            | None -> "n/a"
          in
          Table.add_row t [ Test.Elt.name elt; est; r2 ])
        (Test.elements test))
    (tests ());
  Table.print t
