module Ugraph = Dcs_graph.Ugraph
module Digraph = Dcs_graph.Digraph
module Csr = Dcs_graph.Csr
module Pool = Dcs_util.Pool
module Dinic = Dcs_mincut.Dinic
module Metrics = Dcs_obs_core.Metrics

(* Batched local edge-connectivity estimation: a lower bound
   λ̂(u,v) <= min(λ(u,v), cap) for every edge, where λ is the local
   edge connectivity. Connectivity-based importance sampling (CCPS21's
   compress: p = min(1, ρ/λ)) only needs λ capped at the sampling rate ρ
   and tolerates any *under*estimate — a smaller λ̂ means a larger p,
   i.e. oversampling — so the estimator is a chain of ever-sharper,
   always-sound lower bounds and stops at the first one that reaches
   [cap]:

   1. the edge's own weight (an edge is a cut-crossing witness of itself);
   2. the Nagamochi–Ibaraki strength index — an O(cap) forest rounds
      prefilter, divided by (1+β) on digraphs (undirected local
      connectivity exceeds directed λ by at most that factor on
      β-balanced graphs);
   3. a common-neighbour bound: w(u,v) + Σ_z min(w(u,z), w(z,v)) — the
      direct edge plus one edge-disjoint two-hop path per shared
      neighbour, an O(deg) sorted-row merge;
   4. exact max-flow capped at [cap], batched over
      {!Dcs_util.Pool.run_batched} with one reusable Dinic residual
      network per worker domain (built once per domain, reset — an O(m)
      blit — between queries).

   Exact flows run only where the cheap tiers are uninformative (their
   bound is below [cap]), weakest-bound-first under an optional flow
   budget, and — for undirected graphs — on the NI sparse certificate
   ({!Strength.certificate}, O(cap·n) edges) instead of the full graph.
   Results are a pure function of graph content: edges are visited in
   canonical sorted order and each flow task is a pure function of its
   index, so estimates are byte-identical for every domain count. *)

let m_edges = Metrics.counter "conn.edges"
let m_by_weight = Metrics.counter "conn.by_weight"
let m_by_strength = Metrics.counter "conn.by_strength"
let m_by_triangle = Metrics.counter "conn.by_triangle"
let m_flows = Metrics.counter "conn.flows"
let m_budgeted = Metrics.counter "conn.budgeted"

type stats = {
  edges : int;
  by_weight : int;
  by_strength : int;
  by_triangle : int;
  flows : int;
  budgeted : int;
}

type t = {
  n : int;
  cap : float;
  edges : (int * int * float) array;
  lambda : float array;
  table : (int * int, float) Hashtbl.t Lazy.t;
      (* endpoint lookup is off the samplers' hot path; built on first
         [find]/[get] *)
  stats : stats;
}

let n t = t.n
let cap t = t.cap
let edges t = t.edges
let lambda_at t i = t.lambda.(i)
let stats t = t.stats
let find t u v = Hashtbl.find_opt (Lazy.force t.table) (u, v)

let get t u v =
  match find t u v with
  | Some l -> l
  | None ->
      invalid_arg (Printf.sprintf "Connectivity.get: (%d, %d) is not an edge" u v)

let iter t f =
  Array.iteri (fun i (u, v, w) -> f u v w t.lambda.(i)) t.edges

(* Adjacency rows of a frozen view as flat arrays, for the sorted-row
   merges of the common-neighbour bound. *)
let materialize n iter deg =
  let heads = Array.init n (fun u -> Array.make (deg u) 0) in
  let ws = Array.init n (fun u -> Array.make (deg u) 0.0) in
  for u = 0 to n - 1 do
    let i = ref 0 in
    iter u (fun v w ->
        heads.(u).(!i) <- v;
        ws.(u).(!i) <- w;
        incr i)
  done;
  (heads, ws)

(* Out- and in-rows of the graph the common-neighbour merges read; an
   undirected (symmetric) view shares one materialization for both
   sides. *)
let rows_of_csr ~symmetric csr =
  let n = Csr.n csr in
  let out = materialize n (Csr.iter_out csr) (Csr.out_degree csr) in
  let inn =
    if symmetric then out
    else materialize n (Csr.iter_in csr) (Csr.in_degree csr)
  in
  (out, inn)

(* w_direct + Σ_{z <> u,v} min(w(u,z), w(z,v)): the direct edge plus one
   two-hop path per common neighbour, pairwise edge-disjoint, so every
   u→v cut severs at least this much weight. Rows are sorted by endpoint,
   so the merge is linear in the two degrees. *)
let common_neighbour_bound ~oh ~ow ~ih ~iw u v w_direct =
  let a = oh.(u) and aw = ow.(u) and b = ih.(v) and bw = iw.(v) in
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 in
  let acc = ref w_direct in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      if x <> u && x <> v then acc := !acc +. Float.min aw.(!i) bw.(!j);
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  !acc

let default_rounds ~cap ~scale =
  if Float.is_finite cap then max 1 (int_of_float (ceil (cap *. scale)))
  else 512

(* The shared tier chain. [ni i] must already include any balance
   correction; the common-neighbour merges read [tri_csr] (the source
   graph: sharpest) while the flows run on [flow_csr] (any weighted
   subgraph of the source is sound — undirected estimation passes the NI
   certificate so flow cost is independent of the source density). *)
let estimate_core ?domains ?(flow_budget = max_int) ~cap ~n ~edges ~ni
    ~tri_rows ~flow_csr () =
  if cap <= 0.0 then invalid_arg "Connectivity: cap must be positive";
  if flow_budget < 0 then invalid_arg "Connectivity: flow_budget >= 0";
  let m = Array.length edges in
  let lambda = Array.make m 0.0 in
  let by_weight = ref 0 and by_strength = ref 0 and by_triangle = ref 0 in
  let pending = ref [] in
  for i = m - 1 downto 0 do
    let _, _, w = edges.(i) in
    if w >= cap then begin
      lambda.(i) <- cap;
      incr by_weight
    end
    else begin
      let b = Float.max w (ni i) in
      if b >= cap then begin
        lambda.(i) <- cap;
        incr by_strength
      end
      else begin
        lambda.(i) <- b;
        pending := i :: !pending
      end
    end
  done;
  let (oh, ow), (ih, iw) = tri_rows in
  let unresolved =
    List.filter
      (fun i ->
        let u, v, w = edges.(i) in
        let tb = common_neighbour_bound ~oh ~ow ~ih ~iw u v w in
        if tb >= cap then begin
          lambda.(i) <- cap;
          incr by_triangle;
          false
        end
        else begin
          lambda.(i) <- Float.max lambda.(i) tb;
          true
        end)
      !pending
  in
  let unresolved = Array.of_list unresolved in
  (* Weakest bound first: those are the edges whose sampling probability
     an exact answer moves the most, so a finite flow budget buys the
     sharpest estimates available. Ties break on edge index — the order
     is a pure function of graph content. *)
  Array.sort
    (fun i j ->
      let c = Float.compare lambda.(i) lambda.(j) in
      if c <> 0 then c else Int.compare i j)
    unresolved;
  let nflows = min flow_budget (Array.length unresolved) in
  if nflows > 0 then begin
    let flows =
      Pool.run_batched ?domains
        ~arena:(fun () -> Dinic.of_csr flow_csr)
        ~n:nflows
        (fun net k ->
          let u, v, _ = edges.(unresolved.(k)) in
          Dinic.maxflow ~limit:cap net ~s:u ~t:v)
    in
    for k = 0 to nflows - 1 do
      let i = unresolved.(k) in
      lambda.(i) <- Float.max lambda.(i) flows.(k)
    done
  end;
  let budgeted = Array.length unresolved - nflows in
  let table =
    lazy
      (let tbl = Hashtbl.create (2 * max 1 m) in
       Array.iteri
         (fun i (u, v, _) -> Hashtbl.replace tbl (u, v) lambda.(i))
         edges;
       tbl)
  in
  Metrics.inc ~by:m m_edges;
  Metrics.inc ~by:!by_weight m_by_weight;
  Metrics.inc ~by:!by_strength m_by_strength;
  Metrics.inc ~by:!by_triangle m_by_triangle;
  Metrics.inc ~by:nflows m_flows;
  Metrics.inc ~by:budgeted m_budgeted;
  {
    n;
    cap;
    edges;
    lambda;
    table;
    stats =
      {
        edges = m;
        by_weight = !by_weight;
        by_strength = !by_strength;
        by_triangle = !by_triangle;
        flows = nflows;
        budgeted;
      };
  }

let estimate_ugraph ?domains ?flow_budget ?strengths ~cap g =
  let n = Ugraph.n g in
  let edges = Importance.sorted_edges_ugraph g in
  let strengths =
    match strengths with
    | Some s -> s
    | None -> Strength.compute ~max_rounds:(default_rounds ~cap ~scale:1.0) g
  in
  (* Neighbour merges read the full graph (sharpest sound bound); flows
     run on the NI sparse certificate — a weighted subgraph with
     O(rounds·n) edges preserving min(λ, rounds) — so per-query flow cost
     is independent of the source density. *)
  let tri_rows = rows_of_csr ~symmetric:true (Csr.of_ugraph g) in
  let flow_csr = Csr.of_ugraph (Strength.certificate strengths g) in
  let ni i =
    let u, v, _ = edges.(i) in
    float_of_int (Strength.index strengths u v)
  in
  estimate_core ?domains ?flow_budget ~cap ~n ~edges ~ni ~tri_rows
    ~flow_csr ()

let estimate_digraph ?domains ?flow_budget ?csr ?strengths ?(beta = 1.0)
    ~cap g =
  if beta < 1.0 then invalid_arg "Connectivity.estimate_digraph: beta >= 1";
  let n = Digraph.n g in
  let edges = Importance.sorted_edges_digraph g in
  let csr = match csr with Some c -> c | None -> Csr.of_digraph g in
  let strengths =
    match strengths with
    | Some s -> s
    | None ->
        Strength.compute
          ~max_rounds:(default_rounds ~cap ~scale:(1.0 +. beta))
          (Ugraph.of_digraph g)
  in
  (* Undirected strength bounds directed λ only through the balance
     factor: on a β-balanced graph every undirected cut is at most (1+β)
     times its forward directed weight, so λ_dir >= λ_und/(1+β) >=
     NI/(1+β). The caller owns the β promise, exactly as in the
     strength-based samplers. *)
  let ni i =
    let u, v, _ = edges.(i) in
    float_of_int (Strength.index strengths u v) /. (1.0 +. beta)
  in
  estimate_core ?domains ?flow_budget ~cap ~n ~edges ~ni
    ~tri_rows:(rows_of_csr ~symmetric:false csr)
    ~flow_csr:csr ()
