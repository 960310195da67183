let ratio fwd bwd = if bwd > 0.0 then fwd /. bwd else if fwd > 0.0 then infinity else 1.0

let of_cut g c = ratio (Cut.value g c) (Cut.value_rev g c)

let exact g =
  let nv = Digraph.n g in
  if nv > 24 then invalid_arg "Balance.exact: graph too large (n > 24)";
  if nv < 2 then 1.0
  else begin
    (* Fix vertex 0 on the S side; the complementary cut is covered because
       we take the max of both directions for each enumerated S. *)
    let best = ref 0.0 in
    let limit = 1 lsl (nv - 1) in
    (* mask = limit - 1 would be the full vertex set; stop short of it. *)
    for mask = 0 to limit - 2 do
      let mem v = v = 0 || (mask lsr (v - 1)) land 1 = 1 in
      let c = Cut.of_mem ~n:nv mem in
      let fwd = Cut.value g c and bwd = Cut.value_rev g c in
      best := Float.max !best (Float.max (ratio fwd bwd) (ratio bwd fwd))
    done;
    if !best = 0.0 then 1.0 else !best
  end

let edgewise_upper_bound g =
  Digraph.fold_edges
    (fun u v w acc ->
      let rev = Digraph.weight g v u in
      let r = if rev > 0.0 then w /. rev else infinity in
      Float.max acc r)
    g 0.0

(* A singleton {v} and its complement need only v's arcs, one O(n + m)
   pass for all of them, with every sum added in [Cut.value]/[value_rev]'s
   order so each ratio keeps its bits: across {v} they walk v's out-row
   and in-row in table order ([out_weight]/[in_weight]); across V\{v} they
   walk every other vertex in ascending order, so they add v's in-arcs by
   ascending tail and its out-arcs by ascending head — the order of the
   canonical edge array. *)
let sampled_lower_bound rng ~trials g =
  let nv = Digraph.n g in
  if nv < 2 then 1.0
  else begin
    let best = ref 0.0 in
    let consider r = best := Float.max !best r in
    let into = Array.make nv 0.0 and out_of = Array.make nv 0.0 in
    Array.iter
      (fun (u, v, w) ->
        out_of.(u) <- out_of.(u) +. w;
        into.(v) <- into.(v) +. w)
      (Digraph.edges g);
    for v = 0 to nv - 1 do
      consider (ratio (Digraph.out_weight g v) (Digraph.in_weight g v));
      consider (ratio into.(v) out_of.(v))
    done;
    (* [Cut.random]'s draws, into one reused side: a fair coin per vertex,
       redrawn until the side is proper. A fresh 2^20-vertex cut per trial
       would leave 8 MB of garbage each. *)
    let side = Array.make nv false in
    let mem v = side.(v) in
    for _ = 1 to trials do
      let rec draw () =
        let card = ref 0 in
        for v = 0 to nv - 1 do
          let b = Dcs_util.Prng.bool rng in
          side.(v) <- b;
          if b then incr card
        done;
        if !card = 0 || !card = nv then draw ()
      in
      draw ();
      consider (ratio (Digraph.cut_weight g mem) (Digraph.cut_weight_into g mem))
    done;
    !best
  end
