(* Shared stage constructors for the scheduled experiments.

   E3, E4, E19 and E20 used to regenerate the same instance families and
   frozen CSR views independently; here each family is a typed [Sched]
   stage declared exactly once per (parameters, trial count) and memoized
   in this module's tables, so every experiment that draws the same
   configuration shares one vertex of the merged DAG — one computation
   cold, one artifact-store hit warm.

   Stage thunks must be pure and re-entrant (stages of one level run
   concurrently on the pool), so every stage derives its randomness
   inside the thunk from [seed_rng name] — a pure function of the stage
   name — and never captures live [Prng.t] state. The same seed feeds the stage's cache-key
   fingerprint, so reseeding or renaming a stage invalidates its artifact. *)

open Dcs
module Fa = Forall_lb
module Fe = Foreach_lb

type t = {
  dag : Sched.t;
  forall_insts : (int * int * int * int, Fa.instance array Sched.node) Hashtbl.t;
  forall_csrs : (int * int * int * int, Csr.t array Sched.node) Hashtbl.t;
  foreach_insts : (int * int * int * int, Fe.instance array Sched.node) Hashtbl.t;
  graphs : (string, Ugraph.t Sched.node) Hashtbl.t;
  digraphs : (string, Digraph.t Sched.node) Hashtbl.t;
  digraph_csrs : (string, Csr.t Sched.node) Hashtbl.t;
  strengths : (string, Strength.t Sched.node) Hashtbl.t;
}

let create store =
  {
    dag = Sched.create ~store ();
    forall_insts = Hashtbl.create 16;
    forall_csrs = Hashtbl.create 16;
    foreach_insts = Hashtbl.create 16;
    graphs = Hashtbl.create 16;
    digraphs = Hashtbl.create 16;
    digraph_csrs = Hashtbl.create 16;
    strengths = Hashtbl.create 16;
  }

let dag t = t.dag
let value t node = Sched.value t.dag node

let seed_rng name = Prng.create (0x5c4ed + Checksum.crc32 name)
let fp_of name = Prng.fingerprint (seed_rng name)

(* The (beta, 1/eps^2) grid the scheduled experiments share: E4's decode
   battery, E19's representation battery and E20's identity grid all draw
   these configurations at the same trial count, so the instance and
   freeze stages are declared once and reached from three experiments. *)
let battery = [ (1, 8); (2, 8); (1, 16) ]
let battery_trials = 24

let forall_instances t ~beta ~d ~n ~trials =
  let key = (beta, d, n, trials) in
  match Hashtbl.find_opt t.forall_insts key with
  | Some node -> node
  | None ->
      let name =
        Printf.sprintf "forall.instances b%d d%d n%d t%d" beta d n trials
      in
      let node =
        Sched.stage t.dag ~name ~fingerprint:(fp_of name)
          ~codec:(Sched.marshal_codec ()) ~deps:[]
          (fun () ->
            let p = Fa.make_params ~beta ~inv_eps_sq:d n in
            let master = seed_rng name in
            Array.init trials (fun i ->
                Fa.random_instance (Prng.split master i) p))
      in
      Hashtbl.add t.forall_insts key node;
      node

let forall_csrs t ~beta ~d ~n ~trials =
  let key = (beta, d, n, trials) in
  match Hashtbl.find_opt t.forall_csrs key with
  | Some node -> node
  | None ->
      let insts = forall_instances t ~beta ~d ~n ~trials in
      let name =
        Printf.sprintf "forall.freeze b%d d%d n%d t%d" beta d n trials
      in
      let node =
        Sched.stage t.dag ~name ~codec:(Sched.marshal_codec ())
          ~deps:[ Sched.dep insts ]
          (fun () ->
            Array.map (fun i -> Csr.of_digraph i.Fa.graph) (value t insts))
      in
      Hashtbl.add t.forall_csrs key node;
      node

let foreach_instances t ~beta ~inv_eps ~n ~trials =
  let key = (beta, inv_eps, n, trials) in
  match Hashtbl.find_opt t.foreach_insts key with
  | Some node -> node
  | None ->
      let name =
        Printf.sprintf "foreach.instances b%d e%d n%d t%d" beta inv_eps n
          trials
      in
      let node =
        Sched.stage t.dag ~name ~fingerprint:(fp_of name)
          ~codec:(Sched.marshal_codec ()) ~deps:[]
          (fun () ->
            let p = Fe.make_params ~beta ~inv_eps n in
            let master = seed_rng name in
            Array.init trials (fun i ->
                Fe.random_instance (Prng.split master i) p))
      in
      Hashtbl.add t.foreach_insts key node;
      node

(* A connected weighted multigraph source (the Karger sweeps): keyed by a
   caller-chosen tag so distinct experiments can share or separate their
   graphs by name alone. *)
let weighted_graph t ~tag ~n ~p ~max_weight =
  match Hashtbl.find_opt t.graphs tag with
  | Some node -> node
  | None ->
      let name = Printf.sprintf "graph.%s n%d" tag n in
      let node =
        Sched.stage t.dag ~name ~fingerprint:(fp_of name)
          ~codec:(Sched.marshal_codec ()) ~deps:[]
          (fun () ->
            let rng = seed_rng name in
            let g0 = Generators.erdos_renyi_connected rng ~n ~p in
            Generators.random_multigraph_weights rng g0 ~max_weight)
      in
      Hashtbl.add t.graphs tag node;
      node

(* A planted-min-cut weighted source: two dense blocks joined by exactly
   [k] cross edges, integer multigraph weights. The heterogeneous-
   connectivity regime the sparsify-then-solve experiments target —
   in-block local connectivity is huge while the planted cut is tiny. *)
let planted_graph t ~tag ~block ~k ~p_inner ~max_weight =
  match Hashtbl.find_opt t.graphs tag with
  | Some node -> node
  | None ->
      let name = Printf.sprintf "graph.%s b%d k%d" tag block k in
      let node =
        Sched.stage t.dag ~name ~fingerprint:(fp_of name)
          ~codec:(Sched.marshal_codec ()) ~deps:[]
          (fun () ->
            let rng = seed_rng name in
            let g0 = Generators.planted_mincut rng ~block ~k ~p_inner in
            Generators.random_multigraph_weights rng g0 ~max_weight)
      in
      Hashtbl.add t.graphs tag node;
      node

(* A β-balanced weighted digraph source (the directed sparsifier
   experiments), same tag discipline as [weighted_graph]. *)
let balanced_digraph t ~tag ~n ~p ~beta ~max_weight =
  match Hashtbl.find_opt t.digraphs tag with
  | Some node -> node
  | None ->
      let name = Printf.sprintf "digraph.%s n%d b%g" tag n beta in
      let node =
        Sched.stage t.dag ~name ~fingerprint:(fp_of name)
          ~codec:(Sched.marshal_codec ()) ~deps:[]
          (fun () ->
            Generators.balanced_digraph (seed_rng name) ~n ~p ~beta ~max_weight)
      in
      Hashtbl.add t.digraphs tag node;
      node

(* Frozen CSR view of a digraph stage: the certify/repair drivers and the
   connectivity estimator both want the same frozen view, so it is one
   shared vertex per tag. *)
let digraph_csr t ~tag gnode =
  match Hashtbl.find_opt t.digraph_csrs tag with
  | Some node -> node
  | None ->
      let name = Printf.sprintf "freeze.%s" tag in
      let node =
        Sched.stage t.dag ~name ~codec:(Sched.marshal_codec ())
          ~deps:[ Sched.dep gnode ]
          (fun () -> Csr.of_digraph (value t gnode))
      in
      Hashtbl.add t.digraph_csrs tag node;
      node

(* Nagamochi–Ibaraki decomposition of a digraph stage's undirected
   projection, at a bounded round count — the prefilter tier every
   connectivity-sampling consumer shares. *)
let projection_strengths t ~tag ~rounds gnode =
  match Hashtbl.find_opt t.strengths tag with
  | Some node -> node
  | None ->
      let name = Printf.sprintf "strength.%s r%d" tag rounds in
      let node =
        Sched.stage t.dag ~name ~codec:(Sched.marshal_codec ())
          ~deps:[ Sched.dep gnode ]
          (fun () ->
            Strength.compute ~max_rounds:rounds
              (Ugraph.of_digraph (value t gnode)))
      in
      Hashtbl.add t.strengths tag node;
      node
