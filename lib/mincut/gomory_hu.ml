module Ugraph = Dcs_graph.Ugraph
module Cut = Dcs_graph.Cut

type t = {
  size : int;
  parent : int array;   (* parent.(0) unused; tree edge i -- parent.(i) *)
  flow : float array;   (* weight of that tree edge *)
}

let build g =
  let n = Ugraph.n g in
  if n < 2 then invalid_arg "Gomory_hu.build: need >= 2 vertices";
  if not (Dcs_graph.Traversal.is_connected g) then
    invalid_arg "Gomory_hu.build: graph must be connected";
  let parent = Array.make n 0 in
  let flow = Array.make n infinity in
  let net = Dinic.of_ugraph g in
  for i = 1 to n - 1 do
    let f, side = Dinic.mincut_side net ~s:i ~t:parent.(i) in
    flow.(i) <- f;
    (* Gusfield's re-rooting: vertices on i's side whose parent was i's
       parent now hang off i. *)
    for j = i + 1 to n - 1 do
      if Cut.mem side j && parent.(j) = parent.(i) then parent.(j) <- i
    done;
    (* If i's parent's own parent ended up on i's side, swap roles. *)
    if parent.(i) <> 0 && Cut.mem side parent.(parent.(i)) then begin
      let p = parent.(i) in
      let gp = parent.(p) in
      parent.(i) <- gp;
      parent.(p) <- i;
      flow.(i) <- flow.(p);
      flow.(p) <- f
    end
  done;
  { size = n; parent; flow }

let tree_edges t =
  let out = ref [] in
  for i = 1 to t.size - 1 do
    out := (i, t.parent.(i), t.flow.(i)) :: !out
  done;
  !out

(* Path from v to the root (vertex 0) as a vertex list. *)
let path_to_root t v =
  let rec go acc v = if v = 0 then List.rev (0 :: acc) else go (v :: acc) t.parent.(v) in
  go [] v

(* Lightest edge on the tree path between u and v, returned as the child
   endpoint of that edge. *)
let bottleneck t u v =
  if u = v then invalid_arg "Gomory_hu: u = v";
  let pu = path_to_root t u and pv = path_to_root t v in
  (* Find the lowest common ancestor via membership sets. *)
  let on_pu = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace on_pu x ()) pu;
  let lca = List.find (fun x -> Hashtbl.mem on_pu x) pv in
  let rec walk best x = if x = lca then best
    else begin
      let best =
        match best with
        | Some (_, bf) when bf <= t.flow.(x) -> best
        | _ -> Some (x, t.flow.(x))
      in
      walk best t.parent.(x)
    end
  in
  let best = walk None u in
  let best = walk best v in
  match best with
  | Some (child, f) -> (child, f)
  | None -> invalid_arg "Gomory_hu: degenerate path"

let min_cut_value t u v = snd (bottleneck t u v)

(* The side of the cut induced by removing tree edge (child, parent): the
   subtree rooted at child. *)
let subtree_side t child =
  let side = Array.make t.size false in
  side.(child) <- true;
  (* children lists *)
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 1 to t.size - 1 do
      if (not side.(v)) && side.(t.parent.(v)) then begin
        side.(v) <- true;
        changed := true
      end
    done
  done;
  Cut.of_array side

let min_cut t u v =
  let child, f = bottleneck t u v in
  let side = subtree_side t child in
  let side = if Cut.mem side u then side else Cut.complement side in
  (f, side)

let global_min_cut t =
  let best = ref (1, t.flow.(1)) in
  for i = 2 to t.size - 1 do
    if t.flow.(i) < snd !best then best := (i, t.flow.(i))
  done;
  let child, f = !best in
  (f, subtree_side t child)
