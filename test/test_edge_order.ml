(* Randomness that depends only on graph content. Every randomized entry
   point that draws once per edge, and every float sum over the edges,
   reads the canonical order of [Ugraph.edges]/[Digraph.edges]. So equal
   graphs built from a sorted edge list, from a shuffled copy with swapped
   endpoints, or through extra edges added and then removed by
   [set_edge ... 0.0] (the streaming layer's mutation path) give
   identical results from the same seed. *)

open Dcs

(* A graph's content, independent of its table order. *)
let ucontent g =
  List.sort compare (Ugraph.fold_edges (fun u v w acc -> (u, v, w) :: acc) g [])

let dcontent g =
  List.sort compare (Digraph.fold_edges (fun u v w acc -> (u, v, w) :: acc) g [])

(* A connected instance as a sorted edge list (u < v, each pair once): a
   random spanning path plus G(n, 0.3), with integer weights 1..5 or
   fractional ones. *)
let instance rng ~n ~fractional =
  let tbl = Hashtbl.create 64 in
  let add u v =
    let u, v = (min u v, max u v) in
    if not (Hashtbl.mem tbl (u, v)) then
      Hashtbl.replace tbl (u, v)
        (if fractional then 0.1 +. Prng.float rng 4.9
         else float_of_int (1 + Prng.int rng 5))
  in
  let perm = Array.init n Fun.id in
  Prng.shuffle rng perm;
  for i = 0 to n - 2 do
    add perm.(i) perm.(i + 1)
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.float rng 1.0 < 0.3 then add u v
    done
  done;
  List.sort compare (Hashtbl.fold (fun (u, v) w acc -> (u, v, w) :: acc) tbl [])

(* Arcs from an undirected instance: each pair one way, the other way, or
   both ways at two weights. *)
let arcs rng es =
  List.concat_map
    (fun (u, v, w) ->
      match Prng.int rng 3 with
      | 0 -> [ (u, v, w) ]
      | 1 -> [ (v, u, w) ]
      | _ -> [ (u, v, w); (v, u, w +. 1.0) ])
    es

let shuffled rng es =
  let a = Array.of_list es in
  Prng.shuffle rng a;
  Array.to_list a

(* Three builds of one graph: in sorted order; shuffled (endpoints swapped
   at random when [swap]); and with absent extra edges inserted first and
   removed again once the real ones are in. *)
let builds (type g) ~(create : int -> g) ~(add : g -> int -> int -> float -> unit)
    ~(set : g -> int -> int -> float -> unit) ~swap rng n es =
  let build es =
    let g = create n in
    List.iter (fun (u, v, w) -> add g u v w) es;
    g
  in
  let swapped =
    List.map
      (fun (u, v, w) -> if swap && Prng.bool rng then (v, u, w) else (u, v, w))
      (shuffled rng es)
  in
  let present = Hashtbl.create 64 in
  List.iter (fun (u, v, _) -> Hashtbl.replace present (u, v) ()) es;
  let absent (u, v) =
    u <> v
    && (not (Hashtbl.mem present (u, v)))
    && not (swap && Hashtbl.mem present (v, u))
  in
  let extras =
    List.sort_uniq compare
      (List.filter absent
         (List.init (2 * n) (fun _ -> (Prng.int rng n, Prng.int rng n))))
  in
  let mutated = create n in
  List.iter (fun (u, v) -> add mutated u v 1.0) (shuffled rng extras);
  List.iter (fun (u, v, w) -> add mutated u v w) (shuffled rng es);
  List.iter (fun (u, v) -> set mutated u v 0.0) extras;
  [ build es; build swapped; mutated ]

let ugraphs rng n es =
  builds ~create:Ugraph.create ~add:Ugraph.add_edge ~set:Ugraph.set_edge
    ~swap:true rng n es

let digraphs rng n es =
  builds ~create:Digraph.create ~add:Digraph.add_edge ~set:Digraph.set_edge
    ~swap:false rng n es

(* [compare], not [=]: a NaN field (no sparse value) equals itself. *)
let agree name f gs =
  match List.map f gs with
  | [] -> true
  | r :: rest ->
      List.for_all (fun r' -> compare r r' = 0) rest
      || QCheck.Test.fail_reportf "%s differs between insertion orders" name

let cut c = Cut.to_list c

let prop_results_follow_content =
  QCheck.Test.make ~name:"randomized results follow graph content" ~count:60
    QCheck.(pair (int_bound 100000) (int_range 8 20))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let es = instance rng ~n ~fractional:false in
      let gs = ugraphs rng n es in
      let ds = digraphs rng n (arcs rng es) in
      let r () = Prng.create (seed + 1) in
      let cuts = List.init 4 (fun _ -> Cut.random rng ~n) in
      let karger g =
        let v, c = Karger.mincut ~domains:1 (r ()) ~trials:2 g in
        (v, cut c)
      in
      let candidates g =
        List.map
          (fun (v, c) -> (v, cut c))
          (Karger.candidate_cuts ~domains:1 (r ()) ~trials:8 ~factor:3.0 g)
      in
      let karger_stein g =
        let v, c = Karger_stein.mincut ~domains:1 ~runs:2 (r ()) g in
        (v, cut c)
      in
      let partial g =
        let res =
          Partial_mincut.mincut ~domains:1 ~rho:2.0 (r ()) ~eps:0.5
            ~solver:(Partial_mincut.Karger { trials = 2 }) g
        in
        (res.Partial_mincut.value, cut res.Partial_mincut.cut,
         res.Partial_mincut.stats)
      in
      let imbalance d =
        let s = Imbalance_sketch.create (r ()) ~eps:0.5 ~beta:2.0 d in
        (s.Sketch.size_bits, List.map s.Sketch.query cuts)
      in
      (* Every edge is drawn: p_e <= 0.2·w_e·R_e·ln n < 1 at these sizes. *)
      List.for_all
        (fun g ->
          Spectral_sparsifier.expected_edges ~c:0.05 ~eps:0.5 g
          < float_of_int (Ugraph.m g))
        gs
      && agree "Karger.mincut" karger gs
      && agree "Karger.candidate_cuts" candidates gs
      && agree "Karger_stein.mincut" karger_stein gs
      && agree "Partition.random"
           (fun g -> Array.map ucontent (Partition.random (r ()) ~servers:3 g))
           gs
      && agree "Spectral_sparsifier.sparsify"
           (fun g ->
             ucontent (Spectral_sparsifier.sparsify ~c:0.05 (r ()) ~eps:0.5 g))
           gs
      && agree "Benczur_karger.sparsify"
           (fun g -> ucontent (Benczur_karger.sparsify ~c:0.3 (r ()) ~eps:0.5 g))
           gs
      && agree "Foreach_sampler.sparsify"
           (fun g -> ucontent (Foreach_sampler.sparsify ~c:0.3 (r ()) ~eps:0.5 g))
           gs
      && agree "Partial_mincut.mincut" partial gs
      && agree "Directed_sparsifier.forall_sparsify"
           (fun d ->
             dcontent
               (Directed_sparsifier.forall_sparsify ~c:0.3 (r ()) ~eps:0.5
                  ~beta:2.0 d))
           ds
      && agree "Imbalance_sketch.create" imbalance ds)

(* Float sums over the edges, on fractional weights, are bit-equal. *)
let prop_sums_follow_content =
  QCheck.Test.make ~name:"edge sums are bit-equal across insertion orders"
    ~count:60
    QCheck.(pair (int_bound 100000) (int_range 8 20))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let es = instance rng ~n ~fractional:true in
      let gs = ugraphs rng n es in
      let ds = digraphs rng n (arcs rng es) in
      let prob u v w = w /. float_of_int (u + v + 2) in
      let bits x = Int64.bits_of_float x in
      agree "Importance.expected_edges_ugraph"
        (fun g -> bits (Importance.expected_edges_ugraph ~prob g))
        gs
      && agree "Importance.expected_edges_digraph"
           (fun d -> bits (Importance.expected_edges_digraph ~prob d))
           ds
      && agree "Spectral_sparsifier.expected_edges"
           (fun g -> bits (Spectral_sparsifier.expected_edges ~eps:0.5 g))
           gs
      && agree "Resistance.foster_sum"
           (fun g -> bits (Resistance.foster_sum g))
           gs
      && agree "Ugraph.total_weight" (fun g -> bits (Ugraph.total_weight g)) gs
      && agree "Digraph.total_weight" (fun d -> bits (Digraph.total_weight d)) ds
      && agree "Dinic.edge_connectivity"
           (fun g -> bits (Dinic.edge_connectivity g))
           gs)

(* Cut weights on fractional weights are bit-equal whatever the table
   order: 30-vertex G(n, 0.3) instances, built from the sorted edge list
   and from its reverse, over 8 random cuts each. Summed in table order,
   about one cut in ten differed in its last bits. *)
let prop_cut_weight_follows_content =
  QCheck.Test.make ~name:"cut weights are bit-equal across insertion orders"
    ~count:25 (QCheck.int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 30 in
      let es = instance rng ~n ~fractional:true in
      let gs = [ Ugraph.of_edges n es; Ugraph.of_edges n (List.rev es) ] in
      let cuts = List.init 8 (fun _ -> Cut.random rng ~n) in
      agree "Ugraph.cut_value"
        (fun g ->
          List.map (fun c -> Int64.bits_of_float (Ugraph.cut_value g c)) cuts)
        gs)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_results_follow_content;
      prop_sums_follow_content;
      prop_cut_weight_follows_content;
    ]
