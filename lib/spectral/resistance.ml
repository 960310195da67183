module Ugraph = Dcs_graph.Ugraph

let pair g u v =
  let n = Ugraph.n g in
  if u < 0 || u >= n || v < 0 || v >= n || u = v then invalid_arg "Resistance.pair";
  let l = Laplacian.of_ugraph g in
  let b = Array.make n 0.0 in
  b.(u) <- 1.0;
  b.(v) <- -1.0;
  let phi = Laplacian.solve l b in
  phi.(u) -. phi.(v)

(* Columns of the pseudoinverse, one CG solve per vertex:
   R(u,v) = L⁺_uu + L⁺_vv - 2·L⁺_uv. *)
let all_edges g =
  let n = Ugraph.n g in
  let l = Laplacian.of_ugraph g in
  let columns =
    Array.init n (fun u ->
        let b = Array.make n 0.0 in
        b.(u) <- 1.0;
        Laplacian.solve l b)
  in
  let out = Hashtbl.create (2 * Ugraph.m g) in
  Ugraph.iter_edges g (fun u v _ ->
      let r = columns.(u).(u) +. columns.(v).(v) -. (2.0 *. columns.(u).(v)) in
      Hashtbl.replace out ((min u v, max u v)) r);
  out

let foster_sum g =
  let rs = all_edges g in
  Array.fold_left
    (fun acc (u, v, w) -> acc +. (w *. Hashtbl.find rs (u, v)))
    0.0 (Ugraph.edges g)
