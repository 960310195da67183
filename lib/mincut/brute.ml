module Cut = Dcs_graph.Cut
module Csr = Dcs_graph.Csr

(* All 2^(n-1) masks (vertex 0 pinned to S, covering every cut up to
   complement) stream through [Csr.cut_many] in fixed-size blocks: the
   side matrices and output slots are allocated once and refilled per
   block, and the kernel's inner loop reads the frozen view's flat float
   arrays. [cut_many] performs exactly [cut_weight]'s float additions in
   the same order, so values — and hence the strict-< argmin over masks
   in order — are byte-identical to the per-cut loop this replaces. *)
let block = 256

let side_of_mask ~n mask s =
  s.(0) <- true;
  for v = 1 to n - 1 do
    s.(v) <- (mask lsr (v - 1)) land 1 = 1
  done

let enumerate ~n ~directed csr =
  if n < 2 || n > 24 then invalid_arg "Brute.mincut: need 2 <= n <= 24";
  let total = 1 lsl (n - 1) in
  let full = total - 1 in
  (* the one improper mask: S = V *)
  let b = min block total in
  let sides = Array.init b (fun _ -> Array.make n false) in
  let comp = if directed then Array.init b (fun _ -> Array.make n false) else [||] in
  let fwd = Array.make b 0.0 in
  let bwd = Array.make b 0.0 in
  let best = ref infinity in
  let best_mask = ref (-1) in
  let start = ref 0 in
  while !start < total do
    let len = min b (total - !start) in
    for j = 0 to len - 1 do
      let mask = !start + j in
      side_of_mask ~n mask sides.(j);
      if directed then
        for v = 0 to n - 1 do
          comp.(j).(v) <- not sides.(j).(v)
        done
    done;
    ignore (Csr.cut_many ~into:fwd csr (Array.sub sides 0 len));
    if directed then ignore (Csr.cut_many ~into:bwd csr (Array.sub comp 0 len));
    for j = 0 to len - 1 do
      let mask = !start + j in
      if mask <> full then begin
        let v = if directed then Float.min fwd.(j) bwd.(j) else fwd.(j) in
        if v < !best then begin
          best := v;
          best_mask := mask
        end
      end
    done;
    start := !start + len
  done;
  if !best_mask < 0 then invalid_arg "Brute.mincut: no proper cut (n < 2?)";
  let mask = !best_mask in
  (!best, Cut.of_mem ~n (fun v -> v = 0 || (mask lsr (v - 1)) land 1 = 1))

(* Both entry points freeze the graph once and evaluate all 2^(n-1) cuts
   off the flat arrays. The directed value of a cut is w(S, V\S); taking
   the min with the complement's value matches the undirected convention
   used by the oracle's callers, exactly as the unbatched version did. *)
let mincut_ugraph g =
  enumerate ~n:(Dcs_graph.Ugraph.n g) ~directed:false (Csr.of_ugraph g)

let mincut_digraph g =
  enumerate ~n:(Dcs_graph.Digraph.n g) ~directed:true (Csr.of_digraph g)
