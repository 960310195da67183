(* AGM graph sketching (the PODS 2012 framework the paper's introduction
   builds on): maintain connectivity of a graph arriving as a stream of
   edge insertions AND deletions, using O(n·polylog n) bits — far less
   than storing the edges.

   Run with: dune exec examples/streaming_connectivity.exe *)

open Dcs

let () =
  let rng = Prng.create 2718 in
  let n = 64 in
  let sk = Agm_sketch.create ~copies:6 rng ~n in

  (* Phase 1: stream in a random connected graph. *)
  let g = Generators.erdos_renyi_connected rng ~n ~p:0.08 in
  let m = Ugraph.m g in
  Ugraph.iter_edges g (fun u v _ -> Agm_sketch.add_edge sk u v);
  Printf.printf "streamed %d insertions over %d vertices\n" m n;
  Printf.printf
    "sketch size: %d bits — O(n·polylog n), fixed before the stream starts;\n\
    \ the stream itself is unbounded (deletions!) and the worst-case edge set\n\
    \ costs ~n² bits. Polylog constants dominate at this toy n; the point is\n\
    \ the scaling and the deletion support.\n"
    (Agm_sketch.size_bits sk);
  Printf.printf "connected (sketch says): %b | (BFS ground truth): %b\n"
    (let probe = Agm_sketch.create ~copies:6 (Prng.create 1) ~n in
     Ugraph.iter_edges g (fun u v _ -> Agm_sketch.add_edge probe u v);
     Agm_sketch.connected probe)
    (Traversal.is_connected g);

  (* Phase 2: delete a random spanning tree's worth of edges and watch the
     sketch track the truth. Deletions are what linear sketches buy: a
     sampling-based summary cannot survive them. *)
  let edges = Ugraph.edges g in
  Prng.shuffle rng edges;
  let deleted = ref 0 in
  let current = Ugraph.copy g in
  (try
     Array.iter
       (fun (u, v, _) ->
         Ugraph.set_edge current u v 0.0;
         Agm_sketch.remove_edge sk u v;
         incr deleted;
         if not (Traversal.is_connected current) then raise Exit)
       edges
   with Exit -> ());
  Printf.printf "deleted %d edges until the graph disconnected\n" !deleted;
  let forest = Agm_sketch.spanning_forest sk in
  let comps = Agm_sketch.components_after_forest sk forest in
  let truth = Traversal.connected_components current in
  let distinct a = Array.fold_left max (-1) a + 1 in
  Printf.printf "components: sketch >= %d | truth = %d\n" (distinct comps)
    (distinct truth);
  Printf.printf "sketch forest edges all real: %b\n"
    (List.for_all (fun (u, v) -> Ugraph.mem_edge current u v) forest)
