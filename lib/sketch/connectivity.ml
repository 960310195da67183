module Ugraph = Dcs_graph.Ugraph
module Digraph = Dcs_graph.Digraph
module Csr = Dcs_graph.Csr
module Pool = Dcs_util.Pool
module Prng = Dcs_util.Prng
module Dinic = Dcs_mincut.Dinic
module Max_adjacency = Dcs_mincut.Max_adjacency
module Metrics = Dcs_obs_core.Metrics

(* Batched local edge-connectivity estimation: a lower bound
   λ̂(u,v) <= min(λ(u,v), cap) for every edge, where λ is the local
   edge connectivity. Connectivity-based importance sampling (CCPS21's
   compress: p = min(1, ρ/λ)) only needs λ capped at the sampling rate ρ
   and tolerates any *under*estimate — a smaller λ̂ means a larger p,
   i.e. oversampling — so the estimator is a chain of ever-sharper,
   always-sound lower bounds and stops at the first one that reaches
   [cap]:

   0. (undirected, when at least two vertices have weighted degree >=
      [cap] — λ(u,v) <= min(d(u), d(v)), so otherwise no edge can reach
      the cap) maximum-adjacency contraction ({!Max_adjacency}): repeated
      MA passes merge every pair whose attachment q(e) reaches [cap];
      an edge inside a class resolves to [cap]. A minimum x–y cut either
      separates a merged pair, so it weighs at least [cap], or it is a
      cut of the quotient G/S, so min(cap, λ_G) = min(cap, λ_{G/S}) and
      the tiers below run on what is left, their flows on G/S;
   1. the edge's own weight (an edge is a cut-crossing witness of itself);
   2. the Nagamochi–Ibaraki strength index — an O(cap) forest rounds
      prefilter, divided by (1+β) on digraphs (undirected local
      connectivity exceeds directed λ by at most that factor on
      β-balanced graphs) — or, when tier 0 merged something, the larger
      of q(e) and the index of a caller's decomposition (none is
      computed). A decomposition must be of the graph being estimated
      (of its undirected projection, for digraphs); one of another graph
      is rejected with [Invalid_argument] naming the estimator. The check
      compares endpoints only;
   3. a common-neighbour bound: w(u,v) + Σ_z min(w(u,z), w(z,v)) — the
      direct edge plus one edge-disjoint two-hop path per shared
      neighbour: a scatter of u's row and a gather over v's, O(deg v)
      per edge, that stops once the sum reaches [cap];
   4. exact max-flow capped at [cap], batched over
      {!Dcs_util.Pool.run_batched} with one reusable Dinic residual
      network per worker domain (built once per domain, reset — an O(m)
      blit — between queries).

   Exact flows run only where the cheap tiers are uninformative (their
   bound is below [cap]), on the [flow_budget] weakest bounds — a
   partial selection by bounded heap, not a sort of every unresolved
   edge — and, for undirected graphs, on G/S when tier 0 merged
   something and on the NI sparse certificate ({!Strength.certificate},
   O(cap·n) edges) otherwise, never on the full graph. Results are a
   pure function of graph content: edges are visited in canonical sorted
   order, the MA passes are sequential and canonical, and each flow task
   is a pure function of its edge, so estimates are byte-identical for
   every domain count. *)

let m_edges = Metrics.counter "conn.edges"
let m_by_adjacency = Metrics.counter "conn.by_adjacency"
let m_passes = Metrics.counter "conn.adjacency_passes"
let m_by_weight = Metrics.counter "conn.by_weight"
let m_by_strength = Metrics.counter "conn.by_strength"
let m_by_triangle = Metrics.counter "conn.by_triangle"
let m_flows = Metrics.counter "conn.flows"
let m_budgeted = Metrics.counter "conn.budgeted"

type stats = {
  edges : int;
  by_adjacency : int;
  by_weight : int;
  by_strength : int;
  by_triangle : int;
  flows : int;
  budgeted : int;
  passes : int;
}

type t = {
  edges : (int * int * float) array;
  lambda : float array;
  stats : stats;
  view : Csr.t;  (* the frozen graph the estimates describe *)
}

let edges t = t.edges
let lambda_at t i = t.lambda.(i)
let stats t = t.stats
let view t = t.view

let iter t f =
  Array.iteri (fun i (u, v, w) -> f u v w t.lambda.(i)) t.edges

(* [not (x > 0.0)] also rejects NaN, which passes every [x <= 0.0]
   test: a NaN ρ would keep nothing. *)
let positive fn name x =
  if not (x > 0.0) then
    invalid_arg (Printf.sprintf "%s: %s must be positive" fn name)

(* CCPS21's keep rule p = min(1, ρ/λ̂); [Importance] clamps p to 1. *)
let keep_p ~rho lam = if lam <= 0.0 then 1.0 else rho /. lam

(* Edge i draws from its own [Prng.split master i] stream over the
   canonical edge order, so the sample is a pure function of (seed, graph
   content), and binomial resampling keeps an integer weight w as
   Binomial(w, p)/p. *)
let sample t ~rho rng f =
  positive "Connectivity.sample" "rho" rho;
  let master = Prng.fork rng in
  Array.iteri
    (fun i (u, v, w) ->
      match
        Importance.binomial_keep (Prng.split master i)
          ~p:(keep_p ~rho t.lambda.(i)) ~w
      with
      | Some w' -> f u v w'
      | None -> ())
    t.edges

let expected_kept t ~rho =
  positive "Connectivity.expected_kept" "rho" rho;
  let acc = ref 0.0 in
  iter t (fun _ _ w lam ->
      acc := !acc +. Importance.keep_probability ~p:(keep_p ~rho lam) ~w);
  !acc

(* Tier 3, w_direct + Σ_z min(w(u,z), w(z,v)): the direct edge plus one
   two-hop path per common neighbour, pairwise edge-disjoint, so every
   u→v cut severs at least this much weight. The returned function is
   called in ascending (u, v) order, so each tail u's out-row is scattered
   once into [wu], with [stamp] marking the vertices it holds; each edge
   then walks v's in-row and adds the term wherever z is stamped, in
   ascending z — the summation order the estimates' bits depend on. (No
   self-loops: a stamped z in v's in-row is neither u nor v.) A sum that
   reaches [cap] stops there — weights are positive, so it only grows,
   and the edge resolves to [cap] either way. The min is a plain
   comparison: [Float.min] is an out-of-line call that boxes, and agrees
   with it on finite positive weights. *)
let common_neighbour_bound ~n ~cap ((out : Csr.rows), (inn : Csr.rows)) =
  let stamp = Array.make n (-1) and wu = Array.make n 0.0 in
  let tail = ref (-1) in
  fun u v w ->
    if u <> !tail then begin
      tail := u;
      for j = out.off.(u) to out.off.(u + 1) - 1 do
        let z = out.dst.(j) in
        stamp.(z) <- u;
        wu.(z) <- out.w.(j)
      done
    end;
    let acc = ref w and j = ref inn.off.(v) in
    let stop = inn.off.(v + 1) in
    while !j < stop && !acc < cap do
      let z = inn.dst.(!j) in
      if stamp.(z) = u then begin
        let a = wu.(z) and b = inn.w.(!j) in
        acc := !acc +. if a < b then a else b
      end;
      incr j
    done;
    !acc

(* The [k] weakest of [cands] under the total order [weaker], weakest
   first: a bounded max-heap holds the k weakest seen so far, strongest at
   the root, and only those k are sorted. *)
let weakest k weaker cands =
  let heap = Array.make k 0 and size = ref 0 in
  let swap a b =
    let x = heap.(a) in
    heap.(a) <- heap.(b);
    heap.(b) <- x
  in
  Array.iter
    (fun i ->
      if !size < k then begin
        let c = ref !size in
        heap.(!c) <- i;
        incr size;
        while !c > 0 && weaker heap.((!c - 1) / 2) heap.(!c) do
          swap !c ((!c - 1) / 2);
          c := (!c - 1) / 2
        done
      end
      else if k > 0 && weaker i heap.(0) then begin
        heap.(0) <- i;
        let p = ref 0 and sifting = ref true in
        while !sifting do
          let l = (2 * !p) + 1 in
          let big = if l + 1 < k && weaker heap.(l) heap.(l + 1) then l + 1 else l in
          if l < k && weaker heap.(!p) heap.(big) then begin
            swap !p big;
            p := big
          end
          else sifting := false
        done
      end)
    cands;
  Array.sort (fun i j -> if i = j then 0 else if weaker i j then -1 else 1) heap;
  heap

let default_rounds ~cap ~scale =
  if Float.is_finite cap then max 1 (int_of_float (ceil (cap *. scale)))
  else 512

(* The shared tier chain. [ni.(i)] is edge i's tier-2 bound, already
   including any balance correction (and q(e), when [ma] merged
   something); the common-neighbour bound reads [tri_rows] (the source
   graph) while the flows run on [flow_csr]: G/S when [ma] is given
   (between the endpoints' classes), else a weighted subgraph of the
   source — undirected estimation passes the NI certificate, so flow cost
   is independent of the source density. [passes] is tier 0's scan
   count, for the stats; [view] is the frozen source, kept in the
   result. *)
let estimate_core ?domains ?(flow_budget = max_int) ?ma ~passes ~cap ~view
    ~edges ~ni ~tri_rows ~flow_csr () =
  let n = Csr.n view and m = Array.length edges in
  let lambda = Array.make m 0.0 in
  let by_adjacency = ref 0 and by_weight = ref 0 in
  let by_strength = ref 0 and by_triangle = ref 0 in
  let ends =
    match ma with
    | Some c -> fun u v -> (Max_adjacency.label c u, Max_adjacency.label c v)
    | None -> fun u v -> (u, v)
  in
  let tri = common_neighbour_bound ~n ~cap tri_rows in
  let unresolved = Array.make m 0 and nu = ref 0 in
  for i = 0 to m - 1 do
    let u, v, w = edges.(i) in
    let b = Float.max w ni.(i) in
    let s, t = ends u v in
    if s = t then begin
      lambda.(i) <- cap;
      incr by_adjacency
    end
    else if w >= cap then begin
      lambda.(i) <- cap;
      incr by_weight
    end
    else if b >= cap then begin
      lambda.(i) <- cap;
      incr by_strength
    end
    else begin
      let tb = tri u v w in
      if tb >= cap then begin
        lambda.(i) <- cap;
        incr by_triangle
      end
      else begin
        lambda.(i) <- Float.max b tb;
        unresolved.(!nu) <- i;
        incr nu
      end
    end
  done;
  let nu = !nu in
  (* Weakest bound first: those are the edges whose sampling probability
     an exact answer moves the most, so a finite flow budget buys the
     sharpest estimates available. Ties break on edge index — the chosen
     set is a pure function of graph content. A budget covering every
     unresolved edge needs no order: each flow task is a pure function of
     its edge. *)
  let nflows = min flow_budget nu in
  let unresolved = Array.sub unresolved 0 nu in
  let chosen =
    if nflows = nu then unresolved
    else
      weakest nflows
        (fun i j ->
          lambda.(i) < lambda.(j) || (lambda.(i) = lambda.(j) && i < j))
        unresolved
  in
  if nflows > 0 then begin
    let flows =
      Pool.run_batched ?domains
        ~arena:(fun () -> Dinic.of_csr flow_csr)
        ~n:nflows
        (fun net k ->
          let u, v, _ = edges.(chosen.(k)) in
          let s, t = ends u v in
          Dinic.maxflow ~limit:cap net ~s ~t)
    in
    for k = 0 to nflows - 1 do
      let i = chosen.(k) in
      lambda.(i) <- Float.max lambda.(i) flows.(k)
    done
  end;
  let budgeted = nu - nflows in
  Metrics.inc ~by:m m_edges;
  Metrics.inc ~by:!by_adjacency m_by_adjacency;
  Metrics.inc ~by:!by_weight m_by_weight;
  Metrics.inc ~by:!by_strength m_by_strength;
  Metrics.inc ~by:!by_triangle m_by_triangle;
  Metrics.inc ~by:nflows m_flows;
  Metrics.inc ~by:budgeted m_budgeted;
  Metrics.inc ~by:passes m_passes;
  {
    edges;
    lambda;
    stats =
      {
        edges = m;
        by_adjacency = !by_adjacency;
        by_weight = !by_weight;
        by_strength = !by_strength;
        by_triangle = !by_triangle;
        flows = nflows;
        budgeted;
        passes;
      };
    view;
  }

let mismatch fn =
  invalid_arg
    (Printf.sprintf "Connectivity.%s: strengths decompose a different graph" fn)

(* Checked before any work: a NaN cap would otherwise size the strength
   rounds and run every flow to a NaN estimate. *)
let check_params ~cap flow_budget =
  positive "Connectivity" "cap" cap;
  if Option.value flow_budget ~default:0 < 0 then
    invalid_arg "Connectivity: flow_budget >= 0"

(* [Strength] keeps its edges in the same canonical order, so tier 2
   reads the indices by position; matching the endpoints at every
   position rejects a decomposition of another graph. *)
let strength_bounds strengths edges =
  let m = Array.length edges in
  let ni = Array.make m 0.0 in
  let seen =
    Strength.fold
      (fun u v idx k ->
        if k >= m then mismatch "estimate_ugraph";
        let a, b, _ = edges.(k) in
        if a <> u || b <> v then mismatch "estimate_ugraph";
        ni.(k) <- float_of_int idx;
        k + 1)
      strengths 0
  in
  if seen <> m then mismatch "estimate_ugraph";
  ni

(* Tier 0 runs only where it can certify something: an edge reaches
   [cap] only if both endpoints' weighted degrees do. *)
let heavy_vertices ~cap (rows : Csr.rows) =
  let heavy = ref 0 in
  for u = 0 to Array.length rows.off - 2 do
    let d = ref 0.0 in
    for i = rows.off.(u) to rows.off.(u + 1) - 1 do
      d := !d +. rows.w.(i)
    done;
    if !d >= cap then incr heavy
  done;
  !heavy

let estimate_ugraph ?domains ?flow_budget ?strengths ~cap g =
  check_params ~cap flow_budget;
  let n = Ugraph.n g in
  let csr = Csr.of_ugraph g in
  let rows = Csr.out_rows csr in
  let edges = Csr.canonical_edges rows in
  let ma =
    if heavy_vertices ~cap rows < 2 then None
    else
      Some
        (Dcs_obs_core.Trace.with_span "conn.adjacency" (fun () ->
             Max_adjacency.contract ~cap rows))
  in
  let passes = match ma with Some c -> Max_adjacency.passes c | None -> 0 in
  let tri_rows = (rows, rows) in
  match ma with
  | Some c when Max_adjacency.classes c < n ->
      (* Tier 0 merged something: tier 2 is q(e), raised by a caller's
         NI index, and the flows run on G/S — no strength rounds. *)
      let ni =
        match strengths with
        | Some s -> strength_bounds s edges
        | None -> Array.make (Array.length edges) 0.0
      in
      Array.iteri
        (fun i (u, v, _) ->
          let a = Max_adjacency.label c u and b = Max_adjacency.label c v in
          if a <> b then ni.(i) <- Float.max ni.(i) (Max_adjacency.attachment c a b))
        edges;
      estimate_core ?domains ?flow_budget ~ma:c ~passes ~cap ~view:csr ~edges
        ~ni ~tri_rows ~flow_csr:(Max_adjacency.quotient c) ()
  | _ ->
      (* Nothing merged: the chain runs as it always has. Flows run on
         the NI sparse certificate — a weighted subgraph with
         O(rounds·n) edges preserving min(λ, rounds) — so per-query flow
         cost is independent of the source density. *)
      let strengths =
        match strengths with
        | Some s -> s
        | None -> Strength.compute ~max_rounds:(default_rounds ~cap ~scale:1.0) g
      in
      let ni = strength_bounds strengths edges in
      let flow_csr = Csr.of_ugraph (Strength.certificate strengths g) in
      estimate_core ?domains ?flow_budget ~passes ~cap ~view:csr ~edges ~ni
        ~tri_rows ~flow_csr ()

let estimate_digraph ?domains ?flow_budget ?csr ?strengths ?(beta = 1.0)
    ~cap g =
  if beta < 1.0 then invalid_arg "Connectivity.estimate_digraph: beta >= 1";
  check_params ~cap flow_budget;
  let n = Digraph.n g in
  let edges = Digraph.edges g in
  let csr =
    match csr with
    | None -> Csr.of_digraph g
    | Some c when Csr.is_view c ~n ~symmetric:false edges -> c
    | Some _ ->
        invalid_arg "Connectivity.estimate_digraph: csr is a view of a different graph"
  in
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
     strength-based samplers. Every arc's pair must be in the
     decomposition, and the pair counts must agree: the projection has
     one pair per arc u→v with u < v, plus one per arc u→v with u > v
     whose reverse is absent. *)
  let ni =
    Array.map
      (fun (u, v, _) ->
        match Strength.index strengths u v with
        | k -> float_of_int k /. (1.0 +. beta)
        | exception Invalid_argument _ -> mismatch "estimate_digraph")
      edges
  in
  let pairs =
    Array.fold_left
      (fun c (u, v, _) -> if u < v || not (Digraph.mem_edge g v u) then c + 1 else c)
      0 edges
  in
  if pairs <> Strength.fold (fun _ _ _ c -> c + 1) strengths 0 then
    mismatch "estimate_digraph";
  estimate_core ?domains ?flow_budget ~passes:0 ~cap ~view:csr ~edges ~ni
    ~tri_rows:(Csr.out_rows csr, Csr.in_rows csr)
    ~flow_csr:csr ()
