type t = {
  nv : int;
  adj : (int, float) Hashtbl.t array;
  mutable edge_count : int;
}

(* A vertex gets its own table at its first edge; until then it points to
   [no_edges], which nothing ever writes, so a sparse graph pays no table
   per vertex. A graph read back through [Marshal] (a Sched artifact)
   shares one copy of [no_edges] among its empty vertices, so it must
   stay read-only, as every artifact does. *)
let no_edges : (int, float) Hashtbl.t = Hashtbl.create 1

let create nv =
  if nv < 0 then invalid_arg "Ugraph.create: negative size";
  { nv; adj = Array.make nv no_edges; edge_count = 0 }

(* The vertex's own table. It starts at 16 buckets ([Hashtbl.create 4]):
   table-order iteration, which generated instances follow, depends on
   the bucket count. *)
let own g u =
  let t = g.adj.(u) in
  if t != no_edges then t
  else begin
    let t = Hashtbl.create 4 in
    g.adj.(u) <- t;
    t
  end

let n g = g.nv
let m g = g.edge_count

let check_vertex g u name =
  if u < 0 || u >= g.nv then invalid_arg (Printf.sprintf "Ugraph.%s: vertex %d" name u)

let weight g u v =
  check_vertex g u "weight";
  check_vertex g v "weight";
  Option.value (Hashtbl.find_opt g.adj.(u) v) ~default:0.0

let mem_edge g u v = weight g u v > 0.0

let set_edge g u v w =
  check_vertex g u "set_edge";
  check_vertex g v "set_edge";
  if u = v then invalid_arg "Ugraph.set_edge: self-loop";
  if not (Float.is_finite w) then invalid_arg "Ugraph.set_edge: non-finite weight";
  if w < 0.0 then invalid_arg "Ugraph.set_edge: negative weight";
  let existed = Hashtbl.mem g.adj.(u) v in
  if w = 0.0 then begin
    if existed then begin
      Hashtbl.remove g.adj.(u) v;
      Hashtbl.remove g.adj.(v) u;
      g.edge_count <- g.edge_count - 1
    end
  end
  else begin
    Hashtbl.replace (own g u) v w;
    Hashtbl.replace (own g v) u w;
    if not existed then g.edge_count <- g.edge_count + 1
  end

let add_edge g u v w =
  if not (Float.is_finite w) then invalid_arg "Ugraph.add_edge: non-finite weight";
  if w < 0.0 then invalid_arg "Ugraph.add_edge: negative weight";
  if w > 0.0 then set_edge g u v (weight g u v +. w)

let iter_neighbors g u f =
  check_vertex g u "iter_neighbors";
  Hashtbl.iter f g.adj.(u)

let degree g u =
  check_vertex g u "degree";
  Hashtbl.length g.adj.(u)

let iter_edges g f =
  for u = 0 to g.nv - 1 do
    Hashtbl.iter (fun v w -> if u < v then f u v w) g.adj.(u)
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges g (fun u v w -> acc := f u v w !acc);
  !acc

(* Counting passes, no comparison sort: bucket every edge by u, and fill
   the buckets while walking v in ascending order, so each bucket fills
   sorted by v. *)
let edges g =
  let n = g.nv in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let later = ref 0 in
    Hashtbl.iter (fun v _ -> if u < v then incr later) g.adj.(u);
    off.(u + 1) <- off.(u) + !later
  done;
  let es = Array.make off.(n) (0, 0, 0.0) in
  for v = 0 to n - 1 do
    Hashtbl.iter
      (fun u w ->
        if u < v then begin
          es.(off.(u)) <- (u, v, w);
          off.(u) <- off.(u) + 1
        end)
      g.adj.(v)
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

(* Summed in the canonical order of [edges], as [total_weight]: on
   fractional weights the sum's bits then depend on graph content, not
   hashtable history. The same counting passes as [edges], keeping only
   the crossing weights: no tuple per edge. *)
let cut_weight g mem =
  let n = g.nv in
  let side = Array.init n mem in
  let crosses u v = u < v && side.(u) <> side.(v) in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let later = ref 0 in
    Hashtbl.iter (fun v _ -> if crosses u v then incr later) g.adj.(u);
    off.(u + 1) <- off.(u) + !later
  done;
  let ws = Array.make off.(n) 0.0 in
  for v = 0 to n - 1 do
    Hashtbl.iter
      (fun u w ->
        if crosses u v then begin
          ws.(off.(u)) <- w;
          off.(u) <- off.(u) + 1
        end)
      g.adj.(v)
  done;
  Array.fold_left ( +. ) 0.0 ws

let cut_value g c =
  if n g <> Cut.n c then invalid_arg "Ugraph.cut_value: size mismatch";
  cut_weight g (Cut.mem c)

let of_digraph d =
  let g = create (Digraph.n d) in
  Digraph.iter_edges d (fun u v w -> add_edge g u v w);
  g

let neighbor_array g u =
  check_vertex g u "neighbor_array";
  let ns = Hashtbl.fold (fun v _ acc -> v :: acc) g.adj.(u) [] in
  let a = Array.of_list ns in
  Array.sort compare a;
  a

let equal a b =
  n a = n b
  && m a = m b
  && fold_edges (fun u v w acc -> acc && weight b u v = w) a true
