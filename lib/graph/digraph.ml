(* Adjacency is a hashtable per vertex, for both directions: the right
   shape for *construction* — encoders, samplers and contraction build
   graphs edge by edge with O(1) merge of parallel edges. Read-heavy code
   (decoders, min-cut solvers, sketch queries) should freeze the finished
   graph into a [Csr.t] and query that instead; the hashtables stay the
   mutable build-side representation. A vertex gets its own table at its
   first arc in that direction; until then it points to [no_arcs], which
   nothing ever writes, so a sparse graph pays no table per vertex. A
   graph read back through [Marshal] (a Sched artifact) shares one copy
   of [no_arcs] among its empty vertices, so it must stay read-only, as
   every artifact does. *)

type t = {
  nv : int;
  out_adj : (int, float) Hashtbl.t array;
  in_adj : (int, float) Hashtbl.t array;
  mutable edge_count : int;
}

let no_arcs : (int, float) Hashtbl.t = Hashtbl.create 1

let create nv =
  if nv < 0 then invalid_arg "Digraph.create: negative size";
  {
    nv;
    out_adj = Array.make nv no_arcs;
    in_adj = Array.make nv no_arcs;
    edge_count = 0;
  }

(* The vertex's own table. It starts at 16 buckets ([Hashtbl.create 4]):
   table-order iteration, which generated instances follow, depends on
   the bucket count. *)
let own adj u =
  let t = adj.(u) in
  if t != no_arcs then t
  else begin
    let t = Hashtbl.create 4 in
    adj.(u) <- t;
    t
  end

let n g = g.nv
let m g = g.edge_count

let check_vertex g u name =
  if u < 0 || u >= g.nv then invalid_arg (Printf.sprintf "Digraph.%s: vertex %d" name u)

let unsafe_weight g u v =
  Option.value (Hashtbl.find_opt g.out_adj.(u) v) ~default:0.0

let weight g u v =
  check_vertex g u "weight";
  check_vertex g v "weight";
  unsafe_weight g u v

let mem_edge g u v = weight g u v > 0.0

let set_edge g u v w =
  check_vertex g u "set_edge";
  check_vertex g v "set_edge";
  if u = v then invalid_arg "Digraph.set_edge: self-loop";
  if not (Float.is_finite w) then invalid_arg "Digraph.set_edge: non-finite weight";
  if w < 0.0 then invalid_arg "Digraph.set_edge: negative weight";
  let existed = Hashtbl.mem g.out_adj.(u) v in
  if w = 0.0 then begin
    if existed then begin
      Hashtbl.remove g.out_adj.(u) v;
      Hashtbl.remove g.in_adj.(v) u;
      g.edge_count <- g.edge_count - 1
    end
  end
  else begin
    Hashtbl.replace (own g.out_adj u) v w;
    Hashtbl.replace (own g.in_adj v) u w;
    if not existed then g.edge_count <- g.edge_count + 1
  end

let add_edge g u v w =
  if not (Float.is_finite w) then invalid_arg "Digraph.add_edge: non-finite weight";
  if w < 0.0 then invalid_arg "Digraph.add_edge: negative weight";
  if w > 0.0 then set_edge g u v (weight g u v +. w)

let unsafe_iter_out g u f = Hashtbl.iter f g.out_adj.(u)

let iter_out g u f =
  check_vertex g u "iter_out";
  unsafe_iter_out g u f

let fold_out g u f init =
  check_vertex g u "fold_out";
  Hashtbl.fold (fun v w acc -> f acc v w) g.out_adj.(u) init

let out_degree g u =
  check_vertex g u "out_degree";
  Hashtbl.length g.out_adj.(u)

let in_degree g v =
  check_vertex g v "in_degree";
  Hashtbl.length g.in_adj.(v)

let out_weight g u = fold_out g u (fun acc _ w -> acc +. w) 0.0

let in_weight g v =
  check_vertex g v "in_weight";
  Hashtbl.fold (fun _ w acc -> acc +. w) g.in_adj.(v) 0.0

let iter_edges g f =
  for u = 0 to g.nv - 1 do
    Hashtbl.iter (fun v w -> f u v w) g.out_adj.(u)
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges g (fun u v w -> acc := f u v w !acc);
  !acc

(* The in-adjacency already groups arcs by head, so one pass over the
   heads in ascending order fills every tail's bucket sorted. *)
let edges g =
  let n = g.nv in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Hashtbl.length g.out_adj.(u)
  done;
  let es = Array.make off.(n) (0, 0, 0.0) in
  for v = 0 to n - 1 do
    Hashtbl.iter
      (fun u w ->
        es.(off.(u)) <- (u, v, w);
        off.(u) <- off.(u) + 1)
      g.in_adj.(v)
  done;
  es

let total_weight g = Array.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 (edges g)

let of_edges nv es =
  let g = create nv in
  List.iter (fun (u, v, w) -> add_edge g u v w) es;
  g

let copy g =
  let h = create g.nv in
  iter_edges g (fun u v w -> set_edge h u v w);
  h

let reverse g =
  let h = create g.nv in
  iter_edges g (fun u v w -> set_edge h v u w);
  h

let cut_weight g mem =
  let acc = ref 0.0 in
  for u = 0 to g.nv - 1 do
    if mem u && Hashtbl.length g.out_adj.(u) > 0 then
      Hashtbl.iter (fun v w -> if not (mem v) then acc := !acc +. w) g.out_adj.(u)
  done;
  !acc

let cut_weight_into g mem =
  let acc = ref 0.0 in
  for v = 0 to g.nv - 1 do
    if mem v && Hashtbl.length g.in_adj.(v) > 0 then
      Hashtbl.iter (fun u w -> if not (mem u) then acc := !acc +. w) g.in_adj.(v)
  done;
  !acc

let equal a b =
  n a = n b
  && m a = m b
  && fold_edges (fun u v w acc -> acc && weight b u v = w) a true
