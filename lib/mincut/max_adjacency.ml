module Csr = Dcs_graph.Csr
module Ugraph = Dcs_graph.Ugraph

(* Maximum-adjacency (MA) orders — Nagamochi–Ibaraki's scan-first search —
   over flat symmetric rows, and the repeated contraction of the pairs
   they certify.

   An MA order visits, at every step, the unvisited vertex most heavily
   attached to the visited set. Scanning vertex x adds w(x, y) to the
   attachment r(y) of every unvisited neighbour y, and the edge's
   attachment q(x, y) is r(y) right after that addition. Nagamochi and
   Ibaraki show λ(x, y) >= q(x, y) for every scanned edge, so one
   O(m log n) pass lower-bounds the local edge connectivity of every edge
   at once.

   The unvisited vertices live in an indexed binary max-heap keyed by
   (r, -v): ties go to the smaller vertex, so an order is a pure function
   of the rows. Every vertex starts at r = 0, so the identity array is
   already a heap, the scan starts at vertex 0, and an exhausted
   component hands over to the smallest unvisited vertex. *)
let scan (g : Csr.rows) =
  let off = g.off and dst = g.dst and w = g.w in
  let n = Array.length off - 1 in
  let r = Array.make n 0.0 and q = Array.make (Array.length dst) 0.0 in
  let heap = Array.init n Fun.id and at = Array.init n Fun.id in
  let visited = Array.make n false and order = Array.make n 0 in
  let size = ref n in
  (* [v] moves up from slot [i] past every parent it outranks. *)
  let sift_up v i =
    let rv = r.(v) and i = ref i and moving = ref true in
    while !moving && !i > 0 do
      let p = (!i - 1) / 2 in
      let u = heap.(p) in
      let ru = r.(u) in
      if rv > ru || (rv = ru && v < u) then begin
        heap.(!i) <- u;
        at.(u) <- !i;
        i := p
      end
      else moving := false
    done;
    heap.(!i) <- v;
    at.(v) <- !i
  in
  (* The last leaf moves into the root's slot and sinks. *)
  let sift_down v =
    let rv = r.(v) and i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= !size then moving := false
      else begin
        let c =
          if l + 1 < !size then begin
            let a = heap.(l) and b = heap.(l + 1) in
            let ra = r.(a) and rb = r.(b) in
            if rb > ra || (rb = ra && b < a) then l + 1 else l
          end
          else l
        in
        let u = heap.(c) in
        let ru = r.(u) in
        if ru > rv || (ru = rv && u < v) then begin
          heap.(!i) <- u;
          at.(u) <- !i;
          i := c
        end
        else moving := false
      end
    done;
    heap.(!i) <- v;
    at.(v) <- !i
  in
  for k = 0 to n - 1 do
    let x = heap.(0) in
    decr size;
    if !size > 0 then sift_down heap.(!size);
    order.(k) <- x;
    visited.(x) <- true;
    for i = off.(x) to off.(x + 1) - 1 do
      let y = dst.(i) in
      if not visited.(y) then begin
        let a = r.(y) +. w.(i) in
        r.(y) <- a;
        q.(i) <- a;
        sift_up y at.(y)
      end
    done
  done;
  (order, q)

type t = {
  label : int array;
  rows : Csr.rows;
  pos : int array;
  q : float array;
  passes : int;
}

(* The contraction step every solver on this kernel shares: merge every
   pair whose attachment reaches [cap] — and, with [last], the order's
   last two vertices (Stoer–Wagner's step) — relabel the classes by their
   smallest member (so labels are canonical), map [label] through the
   relabelling and freeze the quotient. [None] when nothing merged. *)
let merge ~cap ~last label (rows : Csr.rows) (order, q) =
  let k = Array.length rows.off - 1 in
  let parent = Array.init k Fun.id in
  let rec find x =
    let p = parent.(x) in
    if p = x then x
    else begin
      let r = find p in
      parent.(x) <- r;
      r
    end
  in
  let merged = ref false in
  let union x y =
    let a = find x and b = find y in
    if a <> b then begin
      if a < b then parent.(b) <- a else parent.(a) <- b;
      merged := true
    end
  in
  for x = 0 to k - 1 do
    for i = rows.off.(x) to rows.off.(x + 1) - 1 do
      if q.(i) >= cap then union x rows.dst.(i)
    done
  done;
  if last then union order.(k - 2) order.(k - 1);
  if not !merged then None
  else begin
    let id = Array.make k (-1) and f = Array.make k 0 and k' = ref 0 in
    for x = 0 to k - 1 do
      let c = find x in
      if id.(c) < 0 then begin
        id.(c) <- !k';
        incr k'
      end;
      f.(x) <- id.(c)
    done;
    Array.iteri (fun v c -> label.(v) <- f.(c)) label;
    Some (Csr.quotient_rows rows f !k')
  end

(* Repeated passes at a fixed cap — scan, {!merge}, scan the quotient
   again — until a pass merges nothing or one class is left. Merging a
   pair whose λ reaches [cap] keeps min(cap, λ) of every other pair, so
   each pass's attachments, capped, bound the input's. *)
let contract ~cap (g : Csr.rows) =
  if not (cap > 0.0) then invalid_arg "Max_adjacency.contract: cap must be positive";
  let n = Array.length g.off - 1 in
  let label = Array.init n Fun.id in
  let finish rows order q passes =
    let pos = Array.make (Array.length order) 0 in
    Array.iteri (fun k x -> pos.(x) <- k) order;
    { label; rows; pos; q; passes }
  in
  let rec pass (rows : Csr.rows) passes =
    let order, q = scan rows in
    match merge ~cap ~last:false label rows (order, q) with
    | None -> finish rows order q (passes + 1)
    | Some rows when Array.length rows.off = 2 -> finish rows [| 0 |] [||] (passes + 1)
    | Some rows -> pass rows (passes + 1)
  in
  if n = 0 then finish g [||] [||] 0 else pass g 0

let label t v = t.label.(v)
let classes t = Array.length t.pos
let passes t = t.passes

(* Only the endpoint scanned first holds the pair's attachment. *)
let attachment t a b =
  let a, b = if t.pos.(a) < t.pos.(b) then (a, b) else (b, a) in
  let lo = ref t.rows.off.(a) and hi = ref (t.rows.off.(a + 1) - 1) in
  let found = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let d = t.rows.dst.(mid) in
    if d = b then begin
      found := t.q.(mid);
      lo := !hi + 1
    end
    else if d < b then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let quotient t =
  let k = classes t in
  let h = Ugraph.create k in
  for x = 0 to k - 1 do
    for i = t.rows.off.(x) to t.rows.off.(x + 1) - 1 do
      if x < t.rows.dst.(i) then Ugraph.set_edge h x t.rows.dst.(i) t.rows.w.(i)
    done
  done;
  Csr.of_ugraph h
