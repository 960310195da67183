module Ugraph = Dcs_graph.Ugraph

(* CG on a disconnected Laplacian returns garbage: refuse it up front. *)
let require_connected name g =
  if not (Dcs_graph.Traversal.is_connected g) then
    invalid_arg (name ^ ": graph must be connected")

let pair g u v =
  let n = Ugraph.n g in
  if u < 0 || u >= n || v < 0 || v >= n || u = v then invalid_arg "Resistance.pair";
  require_connected "Resistance.pair" g;
  let l = Laplacian.of_ugraph g in
  let b = Array.make n 0.0 in
  b.(u) <- 1.0;
  b.(v) <- -1.0;
  let phi = Laplacian.solve l b in
  phi.(u) -. phi.(v)

(* R_e for each edge of [es] (= [Ugraph.edges g]), in that order, from the
   columns of the pseudoinverse, one CG solve per vertex:
   R(u,v) = L⁺_uu + L⁺_vv - 2·L⁺_uv. Column u is dropped once its
   diagonal entry and its entries at the edges (u, v), u < v, are kept. *)
let edge_resistances g es =
  let n = Ugraph.n g in
  let l = Laplacian.of_ugraph g in
  let diag = Array.make n 0.0 and cross = Array.make (Array.length es) 0.0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    let b = Array.make n 0.0 in
    b.(u) <- 1.0;
    let column = Laplacian.solve l b in
    diag.(u) <- column.(u);
    while !k < Array.length es && (let a, _, _ = es.(!k) in a = u) do
      let _, v, _ = es.(!k) in
      cross.(!k) <- column.(v);
      incr k
    done
  done;
  Array.mapi (fun k (u, v, _) -> diag.(u) +. diag.(v) -. (2.0 *. cross.(k))) es

let all_edges g =
  require_connected "Resistance.all_edges" g;
  let es = Ugraph.edges g in
  let rs = edge_resistances g es in
  let out = Hashtbl.create (2 * Array.length es) in
  Array.iteri (fun k (u, v, _) -> Hashtbl.replace out (u, v) rs.(k)) es;
  out

let foster_sum g =
  require_connected "Resistance.foster_sum" g;
  let es = Ugraph.edges g in
  let rs = edge_resistances g es in
  let acc = ref 0.0 in
  Array.iteri (fun k (_, _, w) -> acc := !acc +. (w *. rs.(k))) es;
  !acc
