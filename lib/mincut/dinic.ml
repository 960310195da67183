module Digraph = Dcs_graph.Digraph
module Ugraph = Dcs_graph.Ugraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut

(* Residual network in CSR form. Arcs come in pairs — arc [a] and its
   reverse [a lxor 1] — and each vertex's arc ids occupy one contiguous
   slice [off.(u) .. off.(u+1)-1] of [arcs], so the BFS/DFS scans walk flat
   arrays instead of chasing a linked list. Networks are built from a
   frozen [Csr] view of the source graph, which also makes the arc order
   (and hence the augmenting-path order) canonical rather than an artifact
   of hashtable history. A flow allocates no queue cells, closures or
   recursion frames: the BFS queue and the arc stack of the iterative
   augmenting walk come with the network, and each phase's BFS stops once
   the sink is labelled. Entry points reject a vertex outside [0, n) by
   name, as [Csr] does. *)

type t = {
  n : int;
  off : int array;           (* vertex -> first position in [arcs] *)
  arcs : int array;          (* position -> arc id *)
  head : int array;          (* arc -> destination *)
  cap : float array;         (* residual capacities, mutated by maxflow *)
  cap0 : float array;        (* original capacities, for reset *)
  level : int array;
  iter : int array;          (* vertex -> current position during a phase *)
  queue : int array;         (* BFS queue *)
  path : int array;          (* arcs of the current augmenting walk *)
}

let eps = 1e-12

let build n arc_list =
  let m = List.length arc_list in
  let head = Array.make (2 * m) 0 in
  let cap = Array.make (2 * m) 0.0 in
  let off = Array.make (n + 1) 0 in
  List.iter
    (fun (u, v, _) ->
      off.(u + 1) <- off.(u + 1) + 1;
      off.(v + 1) <- off.(v + 1) + 1)
    arc_list;
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done;
  let arcs = Array.make (2 * m) 0 in
  let cur = Array.sub off 0 (max 1 n) in
  let put u a =
    let i = cur.(u) in
    cur.(u) <- i + 1;
    arcs.(i) <- a
  in
  List.iteri
    (fun k (u, v, c) ->
      let a = 2 * k and b = (2 * k) + 1 in
      head.(a) <- v;
      cap.(a) <- c;
      put u a;
      head.(b) <- u;
      cap.(b) <- 0.0;
      put v b)
    arc_list;
  {
    n;
    off;
    arcs;
    head;
    cap;
    cap0 = Array.copy cap;
    level = Array.make n (-1);
    iter = Array.make n 0;
    queue = Array.make n 0;
    path = Array.make n 0;
  }

(* Arcs of a frozen view in ascending (tail, head) order. *)
let arcs_of_csr ?cap csr =
  let acc = ref [] in
  for u = Csr.n csr - 1 downto 0 do
    let row = ref [] in
    Csr.iter_out csr u (fun v w ->
        row := (u, v, Option.value cap ~default:w) :: !row);
    acc := List.rev_append !row !acc
  done;
  !acc

let of_csr csr = build (Csr.n csr) (arcs_of_csr csr)

let of_digraph g =
  let csr = Csr.of_digraph g in
  build (Digraph.n g) (arcs_of_csr csr)

let of_ugraph g =
  (* The symmetric CSR view already stores each undirected edge as a pair
     of opposite arcs of the full capacity, which models undirected flow
     exactly. *)
  let csr = Csr.of_ugraph g in
  build (Ugraph.n g) (arcs_of_csr csr)

let reset t = Array.blit t.cap0 0 t.cap 0 (Array.length t.cap)

let check_vertex t u fn =
  if u < 0 || u >= t.n then invalid_arg (Printf.sprintf "Dinic.%s: vertex %d" fn u)

(* Levels from [s] over arcs with residual capacity, on the preallocated
   queue. It stops once [sink] is labelled: every vertex nearer than the
   sink is labelled by then, and an augmenting walk only moves one level
   deeper, so a vertex at the sink's level or beyond — labelled or not —
   is a dead end to it either way. A BFS that misses the sink runs to
   completion. *)
let bfs t s sink =
  Array.fill t.level 0 t.n (-1);
  let q = t.queue in
  t.level.(s) <- 0;
  q.(0) <- s;
  let first = ref 0 and last = ref 1 in
  while !first < !last && t.level.(sink) < 0 do
    let u = q.(!first) in
    incr first;
    let lu = t.level.(u) + 1 in
    for p = t.off.(u) to t.off.(u + 1) - 1 do
      let a = t.arcs.(p) in
      let v = t.head.(a) in
      if t.cap.(a) > eps && t.level.(v) < 0 then begin
        t.level.(v) <- lu;
        q.(!last) <- v;
        incr last
      end
    done
  done

(* One augmenting walk of a phase, on the arc stack [path]: advance along
   the current vertex's current arc when it leads one level deeper with
   residual capacity, skip it otherwise, and at a dead end retreat and
   skip the arc that led there. At the sink, push min(headroom, the path's
   capacities) along every path arc once; current arcs stay put, so the
   next walk retries them. Returns 0 when the sink is cut off. *)
let augment t s sink headroom =
  let depth = ref 0 and u = ref s and pushed = ref 0.0 and walking = ref true in
  while !walking do
    if !u = sink then begin
      let d = ref headroom in
      for k = 0 to !depth - 1 do
        let c = t.cap.(t.path.(k)) in
        if c < !d then d := c
      done;
      for k = 0 to !depth - 1 do
        let a = t.path.(k) in
        t.cap.(a) <- t.cap.(a) -. !d;
        t.cap.(a lxor 1) <- t.cap.(a lxor 1) +. !d
      done;
      pushed := !d;
      walking := false
    end
    else begin
      let p = t.iter.(!u) in
      if p < t.off.(!u + 1) then begin
        let a = t.arcs.(p) in
        let v = t.head.(a) in
        if t.cap.(a) > eps && t.level.(v) = t.level.(!u) + 1 then begin
          t.path.(!depth) <- a;
          incr depth;
          u := v
        end
        else t.iter.(!u) <- p + 1
      end
      else if !depth = 0 then walking := false
      else begin
        decr depth;
        u := t.head.(t.path.(!depth) lxor 1);
        t.iter.(!u) <- t.iter.(!u) + 1
      end
    end
  done;
  !pushed

(* [limit] caps the flow: augmentation stops as soon as [limit] units have
   been routed (each walk pushes at most the remaining headroom, so the
   returned value never overshoots). The result is the exact max-flow
   whenever it is below [limit], and exactly [limit] otherwise — which is
   all a capped connectivity query or a running-minimum scan needs, at a
   fraction of the phases a saturating flow would pay on well-connected
   pairs. A phase whose BFS misses the sink ends the run, and that BFS ran
   to completion: its levels mark the residual reachable set. *)
let maxflow ?(limit = infinity) t ~s ~t:sink =
  check_vertex t s "maxflow";
  check_vertex t sink "maxflow";
  if s = sink then invalid_arg "Dinic.maxflow: s = t";
  reset t;
  let flow = ref 0.0 in
  let continue = ref (limit > eps) in
  while !continue do
    bfs t s sink;
    if t.level.(sink) < 0 then continue := false
    else begin
      Array.blit t.off 0 t.iter 0 t.n;
      let phase = ref true in
      while !phase do
        let headroom = limit -. !flow in
        let f = if headroom > eps then augment t s sink headroom else 0.0 in
        if f > eps then flow := !flow +. f else phase := false
      done;
      if limit -. !flow <= eps then continue := false
    end
  done;
  Float.min !flow limit

(* An uncapped run ends on a phase BFS that misses the sink, so [level]
   already holds the vertices reachable from s in the final residual
   network. *)
let mincut_side t ~s ~t:sink =
  check_vertex t s "mincut_side";
  check_vertex t sink "mincut_side";
  let f = maxflow t ~s ~t:sink in
  (f, Cut.of_mem ~n:t.n (fun v -> t.level.(v) >= 0))

(* One residual network serves all n-1 source-fixed max-flow runs
   ([maxflow] starts from [reset], an O(m) blit — never a rebuild), and
   every run is capped at the running minimum: a flow that reaches the
   current best cannot lower it, so the run stops there. The running
   minimum starts at the minimum weighted degree (the cheapest singleton
   cut, a trivial upper bound), which already truncates the very first
   flows on dense graphs; a graph that turns out disconnected drives the
   minimum to 0 and skips the remaining runs outright. *)
let edge_connectivity g =
  let n = Ugraph.n g in
  if n < 2 then invalid_arg "Dinic.edge_connectivity: need >= 2 vertices";
  let net = of_ugraph g in
  let wdeg = Array.make n 0.0 in
  Array.iter
    (fun (u, v, w) ->
      wdeg.(u) <- wdeg.(u) +. w;
      wdeg.(v) <- wdeg.(v) +. w)
    (Ugraph.edges g);
  let best = ref wdeg.(0) in
  for v = 1 to n - 1 do
    best := Float.min !best wdeg.(v)
  done;
  let v = ref 1 in
  while !v < n && !best > eps do
    best := Float.min !best (maxflow ~limit:!best net ~s:0 ~t:!v);
    incr v
  done;
  if !best <= eps then 0.0 else !best

let edge_disjoint_paths g ~s ~t:sink =
  let csr = Csr.of_ugraph g in
  let net = build (Ugraph.n g) (arcs_of_csr ~cap:1.0 csr) in
  check_vertex net s "edge_disjoint_paths";
  check_vertex net sink "edge_disjoint_paths";
  int_of_float (Float.round (maxflow net ~s ~t:sink))
