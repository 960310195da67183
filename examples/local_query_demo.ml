(* Min-cut estimation with local queries (Section 5): estimate the global
   minimum cut of a graph you can only probe through degree / neighbor /
   adjacency queries, and watch the query meter.

   Also builds the paper's G_{x,y} hard instance (Figure 2 construction)
   from a 2-SUM instance and verifies Lemma 5.5 on it.

   Run with: dune exec examples/local_query_demo.exe *)

open Dcs

let () =
  let rng = Prng.create 5 in

  (* Part 1: estimate the min cut of a planted-bottleneck graph. *)
  let g = Generators.planted_mincut rng ~block:100 ~k:40 ~p_inner:0.7 in
  let exact = Stoer_wagner.mincut_value g in
  Printf.printf "graph: n=%d m=%d, true min cut = %.0f\n" (Ugraph.n g) (Ugraph.m g)
    exact;
  let oracle = Oracle.create ~memoize:true g in
  List.iter
    (fun eps ->
      let r = Estimator.estimate ~c0:1.0 rng oracle ~eps ~mode:Estimator.Modified in
      Printf.printf
        "eps=%-5.2f estimate=%6.1f  queries=%7d (degree %d + edge %d) of %d slots\n"
        eps r.Estimator.estimate r.Estimator.total_queries r.Estimator.degree_queries
        r.Estimator.edge_queries
        (2 * Ugraph.m g))
    [ 1.0; 0.5; 0.25 ];

  (* Part 2: the hard instance behind Theorem 1.3. *)
  print_newline ();
  let inst = Two_sum.generate rng ~t:32 ~len:32 ~alpha:2 ~frac_intersecting:0.1 in
  let x, y = Two_sum.concat_pair inst in
  let gxy = Gxy.build ~x ~y in
  let int_xy = Bitstring.intersection_size x y in
  Printf.printf "G_{x,y}: N=%d bits -> n=%d vertices, m=%d edges, INT(x,y)=%d\n"
    (Bitstring.length x) (Ugraph.n gxy) (Ugraph.m gxy) int_xy;
  (match Gxy.predicted_mincut ~x ~y with
  | Some predicted ->
      let actual = Stoer_wagner.mincut_value gxy in
      Printf.printf "Lemma 5.5: predicted min cut 2·INT = %d, Stoer–Wagner says %.0f\n"
        predicted actual
  | None -> print_endline "instance outside the Lemma 5.5 regime (√N < 3·INT)");

  (* Estimating its min cut through the oracle = solving 2-SUM: the
     Lemma 5.6 reduction meters the communication of the simulation. *)
  let r = Reduction.solve_two_sum ~c0:1.0 rng inst ~eps:0.5 in
  Printf.printf
    "estimator on G_{x,y}: estimate=%.1f, %d queries = %d bits of Alice/Bob \
     communication (Lemma 5.6 accounting)\n"
    r.Reduction.mincut_estimate r.Reduction.queries r.Reduction.comm_bits;
  Printf.printf "recovered Σ DISJ = %g (true %d)\n" r.Reduction.answer
    r.Reduction.truth
