(* Frozen compressed-sparse-row view of a graph: flat arrays, no hashing.

   Built once from a mutable [Digraph]/[Ugraph] and then read-only, so a
   sketch or solver freezes its graph a single time and answers every
   subsequent cut query off contiguous memory. Rows are sorted by
   destination, which makes iteration order (and therefore float summation
   order) independent of hashtable history, and lets [weight] binary-search
   a row. The freeze sorts nothing: counting passes over vertices in
   ascending order lay every row down sorted, in O(n + m). Both arc
   directions are stored; [reverse] is a field swap. *)

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

(* Row offsets straight from the hashtable degrees. *)
let offsets nv deg =
  let off = Array.make (nv + 1) 0 in
  for u = 0 to nv - 1 do
    off.(u + 1) <- off.(u) + deg u
  done;
  off

(* Two counting passes, no sort: [Digraph.iter_edges] visits sources in
   ascending order, so scattering it by head fills every in-row sorted by
   source; walking those in-rows by ascending head then fills every
   out-row sorted by destination. *)
let of_digraph g =
  Metrics.inc m_builds;
  let nv = Digraph.n g in
  let out_off = offsets nv (Digraph.out_degree g) in
  let in_off = offsets nv (Digraph.in_degree g) in
  let arcs = out_off.(nv) in
  let out_dst = Array.make arcs 0 and out_w = Array.make arcs 0.0 in
  let in_src = Array.make arcs 0 and in_w = Array.make arcs 0.0 in
  let cur = Array.sub in_off 0 nv in
  Digraph.iter_edges g (fun u v w ->
      let j = cur.(v) in
      cur.(v) <- j + 1;
      in_src.(j) <- u;
      in_w.(j) <- w);
  Array.blit out_off 0 cur 0 nv;
  for v = 0 to nv - 1 do
    for j = in_off.(v) to in_off.(v + 1) - 1 do
      let u = in_src.(j) in
      let i = cur.(u) in
      cur.(u) <- i + 1;
      out_dst.(i) <- v;
      out_w.(i) <- in_w.(j)
    done
  done;
  { n = nv; arcs; out_off; out_dst; out_w; in_off; in_src; in_w }

(* One counting pass: for u ascending, u joins the row of each of its
   neighbours, so every row fills sorted. *)
let of_ugraph g =
  Metrics.inc m_builds;
  let nv = Ugraph.n g in
  let off = offsets nv (Ugraph.degree g) in
  let arcs = off.(nv) in
  let dst = Array.make arcs 0 and w = Array.make arcs 0.0 in
  let cur = Array.sub off 0 nv in
  for u = 0 to nv - 1 do
    Ugraph.iter_neighbors g u (fun v x ->
        let i = cur.(v) in
        cur.(v) <- i + 1;
        dst.(i) <- u;
        w.(i) <- x)
  done;
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

type rows = { off : int array; dst : int array; w : float array }

let out_rows t = { off = t.out_off; dst = t.out_dst; w = t.out_w }
let in_rows t = { off = t.in_off; dst = t.in_src; w = t.in_w }

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

(* [cut_weight]'s loop on the cut's own bitmap: no closure call per
   vertex or per arc, the same additions in the same order. *)
let cut_value t c =
  if Cut.n c <> t.n then invalid_arg "Csr.cut_value: size mismatch";
  Metrics.inc m_cut_full;
  let side = Cut.unsafe_side c in
  let off = t.out_off and dst = t.out_dst and w = t.out_w in
  let acc = ref 0.0 in
  for u = 0 to t.n - 1 do
    if Array.unsafe_get side u then
      for i = off.(u) to off.(u + 1) - 1 do
        if not (Array.unsafe_get side (Array.unsafe_get dst i)) then
          acc := !acc +. Array.unsafe_get w i
      done
  done;
  !acc

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

(* Whether an arc of [x] has an endpoint in [lo, hi]. *)
let reaches t x ~lo ~hi =
  let inside a = a >= lo && a <= hi in
  let rec any dst i stop = i < stop && (inside dst.(i) || any dst (i + 1) stop) in
  any t.out_dst t.out_off.(x) t.out_off.(x + 1)
  || any t.in_src t.in_off.(x) t.in_off.(x + 1)

(* A flipped vertex is cold when none of its arcs reaches the batch's flip
   range [lo, hi] (its own id lies there, so a self-loop would make it
   hot). No neighbour of a cold vertex flips during the call, so its row
   sum d(x) — the out-arcs to the far side minus the in-arcs from the near
   side — comes out of the per-flip loop with the same bits at each of its
   flips: it is summed once, at the first flip, and reused. A hot vertex
   is summed at every flip. [state] per range slot: 0 unseen, 1 cold
   ([memo] holds d), 2 hot. *)
let flip_sweep ?len t ~side ~init ~flips ~vals =
  let len = Option.value len ~default:(Array.length flips) in
  if len < 0 || len > Array.length flips then
    invalid_arg "Csr.flip_sweep: bad len";
  if Array.length vals < len then invalid_arg "Csr.flip_sweep: vals too short";
  if Array.length side <> t.n then
    invalid_arg "Csr.flip_sweep: side length mismatch";
  let lo = ref max_int and hi = ref min_int in
  for j = 0 to len - 1 do
    let x = flips.(j) in
    if x < 0 || x >= t.n then invalid_arg "Csr.flip_sweep: vertex out of range";
    if x < !lo then lo := x;
    if x > !hi then hi := x
  done;
  Metrics.inc ~by:len m_cut_delta;
  Metrics.inc m_flip_sweep;
  let lo = !lo and hi = !hi in
  let slots = if len = 0 then 0 else hi - lo + 1 in
  let state = Bytes.make slots '\000' and memo = Array.make slots 0.0 in
  let out_off = t.out_off and out_dst = t.out_dst and out_w = t.out_w in
  let in_off = t.in_off and in_src = t.in_src and in_w = t.in_w in
  let cur = ref init in
  for j = 0 to len - 1 do
    let x = Array.unsafe_get flips j in
    let slot = x - lo in
    let d =
      match Bytes.unsafe_get state slot with
      | '\001' -> Array.unsafe_get memo slot
      | seen ->
          let d = ref 0.0 in
          for i = Array.unsafe_get out_off x to Array.unsafe_get out_off (x + 1) - 1 do
            if not (Array.unsafe_get side (Array.unsafe_get out_dst i)) then
              d := !d +. Array.unsafe_get out_w i
          done;
          for i = Array.unsafe_get in_off x to Array.unsafe_get in_off (x + 1) - 1 do
            if Array.unsafe_get side (Array.unsafe_get in_src i) then
              d := !d -. Array.unsafe_get in_w i
          done;
          if seen = '\000' then
            if reaches t x ~lo ~hi then Bytes.unsafe_set state slot '\002'
            else begin
              Bytes.unsafe_set state slot '\001';
              Array.unsafe_set memo slot !d
            end;
          !d
    in
    let delta = if Array.unsafe_get side x then -. d else d in
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

(* Each direction is one pass over the out-rows against the list's
   cursor; an undirected edge's reverse arcs are the reverse view's. *)
let is_view t ~n ~symmetric edges =
  let rows_are t =
    let i = ref 0 in
    match
      for src = 0 to t.n - 1 do
        for j = t.out_off.(src) to t.out_off.(src + 1) - 1 do
          let dst = t.out_dst.(j) in
          if (not symmetric) || dst > src then begin
            if !i = Array.length edges then raise Exit;
            let a, b, w = edges.(!i) in
            if a <> src || b <> dst || w <> t.out_w.(j) then raise Exit;
            incr i
          end
        done
      done
    with
    | () -> !i = Array.length edges
    | exception Exit -> false
  in
  t.n = n
  && t.arcs = (if symmetric then 2 else 1) * Array.length edges
  && rows_are t
  && ((not symmetric) || rows_are (reverse t))

(* --- symmetric rows --- *)

(* The arcs u -> v with u < v, in row order, are the canonical ascending
   (u, v) edge list with the same weights ([Ugraph.edges] of the graph
   frozen into [rows]) — read off the flat arrays, without a walk over
   any hashtable. *)
let canonical_edges (rows : rows) =
  let es = Array.make (Array.length rows.dst / 2) (0, 0, 0.0) in
  let k = ref 0 in
  for u = 0 to Array.length rows.off - 2 do
    for i = rows.off.(u) to rows.off.(u + 1) - 1 do
      if rows.dst.(i) > u then begin
        es.(!k) <- (u, rows.dst.(i), rows.w.(i));
        incr k
      end
    done
  done;
  es

(* G/S under the class map [f] (onto [0, k)): one pair per pair of
   adjacent classes, its weight the sum of the arcs from the smaller
   class's members in ascending (member, endpoint) order — computed once,
   so both directions carry the same bits. Pairs come out by ascending
   (smaller, larger) class, which fills every row in ascending order. *)
let quotient_rows (g : rows) f k =
  let n = Array.length g.off - 1 in
  let start = Array.make (k + 1) 0 in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) f;
  for c = 0 to k - 1 do
    start.(c + 1) <- start.(c + 1) + start.(c)
  done;
  let members = Array.make n 0 and fill = Array.sub start 0 k in
  for x = 0 to n - 1 do
    members.(fill.(f.(x))) <- x;
    fill.(f.(x)) <- fill.(f.(x)) + 1
  done;
  let most = Array.length g.dst / 2 in
  let first = Array.make (k + 1) 0 in
  let pb = Array.make most 0 and pw = Array.make most 0.0 in
  let stamp = Array.make k (-1) and acc = Array.make k 0.0 in
  let np = ref 0 in
  for c = 0 to k - 1 do
    first.(c) <- !np;
    for j = start.(c) to start.(c + 1) - 1 do
      let x = members.(j) in
      for i = g.off.(x) to g.off.(x + 1) - 1 do
        let d = f.(g.dst.(i)) in
        if d > c then
          if stamp.(d) <> c then begin
            stamp.(d) <- c;
            acc.(d) <- g.w.(i);
            pb.(!np) <- d;
            incr np
          end
          else acc.(d) <- acc.(d) +. g.w.(i)
      done
    done;
    let len = !np - first.(c) in
    if len > 1 then begin
      let ds = Array.sub pb first.(c) len in
      Array.sort Int.compare ds;
      Array.blit ds 0 pb first.(c) len
    end;
    for j = first.(c) to !np - 1 do
      pw.(j) <- acc.(pb.(j))
    done
  done;
  first.(k) <- !np;
  let off = Array.make (k + 1) 0 in
  for c = 0 to k - 1 do
    for j = first.(c) to first.(c + 1) - 1 do
      off.(c + 1) <- off.(c + 1) + 1;
      off.(pb.(j) + 1) <- off.(pb.(j) + 1) + 1
    done
  done;
  for c = 0 to k - 1 do
    off.(c + 1) <- off.(c + 1) + off.(c)
  done;
  let dst = Array.make off.(k) 0 and w = Array.make off.(k) 0.0 in
  let fill = Array.sub off 0 k in
  let push a b x =
    dst.(fill.(a)) <- b;
    w.(fill.(a)) <- x;
    fill.(a) <- fill.(a) + 1
  in
  for c = 0 to k - 1 do
    for j = first.(c) to first.(c + 1) - 1 do
      push c pb.(j) pw.(j);
      push pb.(j) c pw.(j)
    done
  done;
  { off; dst; w }
