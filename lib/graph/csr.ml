(* Frozen compressed-sparse-row view of a graph: flat arrays, no hashing.

   Built once from a mutable [Digraph]/[Ugraph] and then read-only, so a
   sketch or solver freezes its graph a single time and answers every
   subsequent cut query off contiguous memory. Rows are sorted by
   destination, which makes iteration order (and therefore float summation
   order) independent of hashtable history, and lets [weight] binary-search
   a row. Both arc directions are stored; [reverse] is a field swap. *)

module Metrics = Dcs_obs_core.Metrics

(* Registry funnel (E19 cross-checks these): one [builds] per freeze, one
   [cut_full] per from-scratch cut evaluation, one [cut_delta] per O(degree)
   incremental update. All pure call counts — byte-identical across
   DCS_DOMAINS. *)
let m_builds = Metrics.counter "csr.builds"
let m_cut_full = Metrics.counter "csr.cut_full"
let m_cut_delta = Metrics.counter "csr.cut_delta"

(* Kernel invocations (not per-cut/per-flip work — that stays in cut_full /
   cut_delta so routing a caller through a batched kernel leaves its logical
   counters unchanged). Call sites must use fixed batch sizes, never
   domain-count-derived ones, to keep these deterministic. *)
let m_cut_many = Metrics.counter "csr.cut_many_calls"
let m_flip_sweep = Metrics.counter "csr.flip_sweep_calls"

(* Streaming overlay funnel: one [delta_cuts] per cut evaluated through a
   delta overlay (on top of the [cut_full] its base scan counts), one
   [compactions] per overlay merged back into a frozen view. *)
let m_delta_cut = Metrics.counter "csr.delta_cuts"
let m_compactions = Metrics.counter "csr.compactions"

type t = {
  n : int;
  arcs : int;
  out_off : int array;  (* length n+1; arcs leaving u at out_off.(u) .. *)
  out_dst : int array;
  out_w : float array;
  in_off : int array;   (* the same arcs, grouped by head *)
  in_src : int array;
  in_w : float array;
}

let n t = t.n
let m t = t.arcs

let check_vertex t u name =
  if u < 0 || u >= t.n then
    invalid_arg (Printf.sprintf "Csr.%s: vertex %d" name u)

(* Sort each row in place by endpoint. Rows come from merged hashtables, so
   endpoints within a row are distinct and the sorted order is canonical. *)
let sort_rows nv off dst w =
  for u = 0 to nv - 1 do
    let lo = off.(u) in
    let len = off.(u + 1) - lo in
    if len > 1 then begin
      let row = Array.init len (fun i -> (dst.(lo + i), w.(lo + i))) in
      Array.sort (fun (a, _) (b, _) -> compare a b) row;
      Array.iteri
        (fun i (d, x) ->
          dst.(lo + i) <- d;
          w.(lo + i) <- x)
        row
    end
  done

let prefix_sums off nv =
  for i = 0 to nv - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done

let of_digraph g =
  Metrics.inc m_builds;
  let nv = Digraph.n g in
  let out_off = Array.make (nv + 1) 0 in
  let in_off = Array.make (nv + 1) 0 in
  Digraph.iter_edges g (fun u v _ ->
      out_off.(u + 1) <- out_off.(u + 1) + 1;
      in_off.(v + 1) <- in_off.(v + 1) + 1);
  prefix_sums out_off nv;
  prefix_sums in_off nv;
  let arcs = out_off.(nv) in
  let out_dst = Array.make arcs 0 and out_w = Array.make arcs 0.0 in
  let in_src = Array.make arcs 0 and in_w = Array.make arcs 0.0 in
  let ocur = Array.sub out_off 0 (max 1 nv) in
  let icur = Array.sub in_off 0 (max 1 nv) in
  Digraph.iter_edges g (fun u v w ->
      let i = ocur.(u) in
      ocur.(u) <- i + 1;
      out_dst.(i) <- v;
      out_w.(i) <- w;
      let j = icur.(v) in
      icur.(v) <- j + 1;
      in_src.(j) <- u;
      in_w.(j) <- w);
  sort_rows nv out_off out_dst out_w;
  sort_rows nv in_off in_src in_w;
  { n = nv; arcs; out_off; out_dst; out_w; in_off; in_src; in_w }

let of_ugraph g =
  Metrics.inc m_builds;
  let nv = Ugraph.n g in
  let off = Array.make (nv + 1) 0 in
  Ugraph.iter_edges g (fun u v _ ->
      off.(u + 1) <- off.(u + 1) + 1;
      off.(v + 1) <- off.(v + 1) + 1);
  prefix_sums off nv;
  let arcs = off.(nv) in
  let dst = Array.make arcs 0 and w = Array.make arcs 0.0 in
  let cur = Array.sub off 0 (max 1 nv) in
  let put u v x =
    let i = cur.(u) in
    cur.(u) <- i + 1;
    dst.(i) <- v;
    w.(i) <- x
  in
  Ugraph.iter_edges g (fun u v x ->
      put u v x;
      put v u x);
  sort_rows nv off dst w;
  (* Symmetric: the in-direction is the same physical arrays. *)
  { n = nv; arcs; out_off = off; out_dst = dst; out_w = w;
    in_off = off; in_src = dst; in_w = w }

(* Content fingerprint: chain the SplitMix64 finalizer (Prng.mix64 — the
   same mixer Prng.fingerprint is built from) over n and the out-direction
   offset/endpoint/weight arrays. Rows are endpoint-sorted at freeze, so
   the fold order is canonical: two freezes of equal graphs collide by
   construction, whatever hashtable history produced them. The in-direction
   is determined by the out-direction, so it does not join the fold. *)
let fingerprint t =
  let mix = Dcs_util.Prng.mix64 in
  let h = ref (mix (Int64.of_int t.n)) in
  let fold_int v = h := mix (Int64.logxor !h (Int64.of_int v)) in
  let fold_float v = h := mix (Int64.logxor !h (Int64.bits_of_float v)) in
  Array.iter fold_int t.out_off;
  for i = 0 to t.arcs - 1 do
    fold_int t.out_dst.(i);
    fold_float t.out_w.(i)
  done;
  !h

let reverse t =
  {
    t with
    out_off = t.in_off;
    out_dst = t.in_src;
    out_w = t.in_w;
    in_off = t.out_off;
    in_src = t.out_dst;
    in_w = t.out_w;
  }

let out_degree t u =
  check_vertex t u "out_degree";
  t.out_off.(u + 1) - t.out_off.(u)

let in_degree t v =
  check_vertex t v "in_degree";
  t.in_off.(v + 1) - t.in_off.(v)

let iter_out t u f =
  check_vertex t u "iter_out";
  for i = t.out_off.(u) to t.out_off.(u + 1) - 1 do
    f t.out_dst.(i) t.out_w.(i)
  done

let iter_in t v f =
  check_vertex t v "iter_in";
  for i = t.in_off.(v) to t.in_off.(v + 1) - 1 do
    f t.in_src.(i) t.in_w.(i)
  done

let weight t u v =
  check_vertex t u "weight";
  check_vertex t v "weight";
  let lo = ref t.out_off.(u) and hi = ref (t.out_off.(u + 1) - 1) in
  let found = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let d = t.out_dst.(mid) in
    if d = v then begin
      found := t.out_w.(mid);
      lo := !hi + 1
    end
    else if d < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let mem_edge t u v = weight t u v > 0.0

let total_weight t =
  let acc = ref 0.0 in
  for i = 0 to t.arcs - 1 do
    acc := !acc +. t.out_w.(i)
  done;
  !acc

let cut_weight t mem =
  Metrics.inc m_cut_full;
  let off = t.out_off and dst = t.out_dst and w = t.out_w in
  let acc = ref 0.0 in
  for u = 0 to t.n - 1 do
    if mem u then
      for i = off.(u) to off.(u + 1) - 1 do
        if not (mem (Array.unsafe_get dst i)) then
          acc := !acc +. Array.unsafe_get w i
      done
  done;
  !acc

let cut_weight_into t mem =
  Metrics.inc m_cut_full;
  let off = t.in_off and src = t.in_src and w = t.in_w in
  let acc = ref 0.0 in
  for v = 0 to t.n - 1 do
    if mem v then
      for i = off.(v) to off.(v + 1) - 1 do
        if not (mem (Array.unsafe_get src i)) then
          acc := !acc +. Array.unsafe_get w i
      done
  done;
  !acc

let cut_value t c =
  if Cut.n c <> t.n then invalid_arg "Csr.cut_value: size mismatch";
  cut_weight t (Cut.mem c)

let cut_delta t side x =
  if x < 0 || x >= t.n || Array.length side <> t.n then
    invalid_arg "Csr.cut_delta";
  Metrics.inc m_cut_delta;
  let d = ref 0.0 in
  for i = t.out_off.(x) to t.out_off.(x + 1) - 1 do
    if not (Array.unsafe_get side (Array.unsafe_get t.out_dst i)) then
      d := !d +. Array.unsafe_get t.out_w i
  done;
  for i = t.in_off.(x) to t.in_off.(x + 1) - 1 do
    if Array.unsafe_get side (Array.unsafe_get t.in_src i) then
      d := !d -. Array.unsafe_get t.in_w i
  done;
  if side.(x) then -. !d else !d

(* --- batched kernels ---

   Both kernels perform exactly the float operations of their per-call
   counterparts, in the same order: [cut_many] adds each cut's crossing
   weights in (source asc, row asc) order like [cut_weight], and
   [flip_sweep] accumulates per-flip deltas computed with [cut_delta]'s
   formula. Results are therefore byte-identical to the unbatched paths —
   the batching only removes per-call dispatch, closure and metering
   overhead from the inner loops. *)

let cut_many ?into t sides =
  let mcuts = Array.length sides in
  Array.iter
    (fun s ->
      if Array.length s <> t.n then
        invalid_arg "Csr.cut_many: side length mismatch")
    sides;
  let out =
    match into with
    | Some a when Array.length a >= mcuts -> a
    | Some _ -> invalid_arg "Csr.cut_many: into too short"
    | None -> Array.make mcuts 0.0
  in
  Metrics.inc ~by:mcuts m_cut_full;
  Metrics.inc m_cut_many;
  for m = 0 to mcuts - 1 do
    Array.unsafe_set out m 0.0
  done;
  if mcuts > 0 then begin
    let off = t.out_off and dst = t.out_dst and w = t.out_w in
    for u = 0 to t.n - 1 do
      for i = off.(u) to off.(u + 1) - 1 do
        let v = Array.unsafe_get dst i in
        let x = Array.unsafe_get w i in
        for m = 0 to mcuts - 1 do
          let s = Array.unsafe_get sides m in
          if Array.unsafe_get s u && not (Array.unsafe_get s v) then
            Array.unsafe_set out m (Array.unsafe_get out m +. x)
        done
      done
    done
  end;
  out

let flip_sweep ?(off = 0) ?len t ~side ~init ~flips ~vals =
  let len = match len with Some l -> l | None -> Array.length flips - off in
  if off < 0 || len < 0 || off + len > Array.length flips then
    invalid_arg "Csr.flip_sweep: bad off/len";
  if Array.length vals < len then invalid_arg "Csr.flip_sweep: vals too short";
  if Array.length side <> t.n then
    invalid_arg "Csr.flip_sweep: side length mismatch";
  for j = off to off + len - 1 do
    let x = flips.(j) in
    if x < 0 || x >= t.n then invalid_arg "Csr.flip_sweep: vertex out of range"
  done;
  Metrics.inc ~by:len m_cut_delta;
  Metrics.inc m_flip_sweep;
  let out_off = t.out_off and out_dst = t.out_dst and out_w = t.out_w in
  let in_off = t.in_off and in_src = t.in_src and in_w = t.in_w in
  let cur = ref init in
  for j = 0 to len - 1 do
    let x = Array.unsafe_get flips (off + j) in
    let d = ref 0.0 in
    for i = Array.unsafe_get out_off x to Array.unsafe_get out_off (x + 1) - 1 do
      if not (Array.unsafe_get side (Array.unsafe_get out_dst i)) then
        d := !d +. Array.unsafe_get out_w i
    done;
    for i = Array.unsafe_get in_off x to Array.unsafe_get in_off (x + 1) - 1 do
      if Array.unsafe_get side (Array.unsafe_get in_src i) then
        d := !d -. Array.unsafe_get in_w i
    done;
    let delta = if Array.unsafe_get side x then -. !d else !d in
    cur := !cur +. delta;
    Array.unsafe_set side x (not (Array.unsafe_get side x));
    Array.unsafe_set vals j !cur
  done;
  !cur

(* --- canonical thaw --- *)

(* Rebuild a mutable Digraph by walking the frozen rows in (source asc,
   endpoint asc) order. The insertion history is thus a pure function of
   the frozen content, so downstream consumers that depend on hashtable
   history (encoders, samplers before canonicalization) see the same
   digraph whatever history produced [t]. A symmetric view from
   [of_ugraph] yields both opposite arcs, faithfully. *)
let to_digraph t =
  let g = Digraph.create t.n in
  for u = 0 to t.n - 1 do
    for i = t.out_off.(u) to t.out_off.(u + 1) - 1 do
      Digraph.add_edge g u t.out_dst.(i) t.out_w.(i)
    done
  done;
  g

(* --- delta overlays: mutation without re-freezing ---

   A [delta] is a frozen base plus a hashtable of signed weight adjustments
   keyed by arc. Cut evaluation pays one base scan plus O(overlay) — the
   streaming hot path between compactions. All float work is ordered
   canonically (base in row order, overlay in ascending (u, v) key order),
   so values are a pure function of (base content, overlay content); with
   integer/dyadic weights the accumulated adjustments cancel exactly and
   [compact] reproduces the fingerprint a from-scratch freeze would give. *)

type delta = {
  base : t;
  tbl : (int, float) Hashtbl.t; (* key u*n+v -> accumulated adjustment *)
}

let delta_of base = { base; tbl = Hashtbl.create 64 }
let delta_base d = d.base
let delta_pairs d = Hashtbl.length d.tbl

let delta_add d u v dw =
  check_vertex d.base u "delta_add";
  check_vertex d.base v "delta_add";
  if u = v then invalid_arg "Csr.delta_add: self-loop";
  if dw <> 0.0 then begin
    let key = (u * d.base.n) + v in
    let cur = Option.value (Hashtbl.find_opt d.tbl key) ~default:0.0 in
    let next = cur +. dw in
    if next = 0.0 then Hashtbl.remove d.tbl key
    else Hashtbl.replace d.tbl key next
  end

let delta_weight d u v =
  let base = weight d.base u v in
  match Hashtbl.find_opt d.tbl ((u * d.base.n) + v) with
  | None -> base
  | Some dw -> base +. dw

(* Overlay keys in ascending order: the one canonical iteration the float
   sums below depend on. *)
let delta_sorted_keys d =
  let keys = Array.make (Hashtbl.length d.tbl) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun k _ ->
      keys.(!i) <- k;
      incr i)
    d.tbl;
  Array.sort compare keys;
  keys

let delta_cut_weight d mem =
  Metrics.inc m_delta_cut;
  let acc = ref (cut_weight d.base mem) in
  let n = d.base.n in
  Array.iter
    (fun key ->
      let u = key / n and v = key mod n in
      if mem u && not (mem v) then acc := !acc +. Hashtbl.find d.tbl key)
    (delta_sorted_keys d);
  !acc

let delta_cut_value d c =
  if Cut.n c <> d.base.n then invalid_arg "Csr.delta_cut_value: size mismatch";
  delta_cut_weight d (Cut.mem c)

let compact d =
  Metrics.inc m_compactions;
  let g = to_digraph d.base in
  let n = d.base.n in
  Array.iter
    (fun key ->
      let u = key / n and v = key mod n in
      let merged = Digraph.weight g u v +. Hashtbl.find d.tbl key in
      if merged < 0.0 then
        invalid_arg
          (Printf.sprintf "Csr.compact: arc (%d, %d) merges to negative weight"
             u v);
      Digraph.set_edge g u v merged)
    (delta_sorted_keys d);
  of_digraph g
