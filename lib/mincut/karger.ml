module Ugraph = Dcs_graph.Ugraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut
module Prng = Dcs_util.Prng

(* Per-domain scratch for one contraction run: a binary min-heap of
   (clock, edge index) keys held inline in two flat arrays, and
   union-find state. Sized once per worker domain and reused across every
   run that domain executes, so a run allocates only its result cut —
   per-run allocation is what made multi-domain fan-out collapse on the
   minor-GC rendezvous (BENCH_005's E10), so the hot loop stays out of
   the allocator entirely. *)
type scratch = {
  clock : float array;
  edge : int array;
  parent : int array;
  rank : int array;
}

let make_scratch ~edges:m ~vertices:n =
  {
    clock = Array.make (max 1 m) 0.0;
    edge = Array.make (max 1 m) 0;
    parent = Array.make (max 1 n) 0;
    rank = Array.make (max 1 n) 0;
  }

(* Slot [i] of a heap of [size] keys sinks below every child that precedes
   it in (clock, edge index) order — a total order, so the pops are the
   sorted order with exact clock ties broken by edge index. *)
let sift_down s size i =
  let clock = s.clock and edge = s.edge in
  let c0 = clock.(i) and e0 = edge.(i) in
  let i = ref i and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= size then sinking := false
    else begin
      let c =
        if l + 1 < size then begin
          let cl = clock.(l) and cr = clock.(l + 1) in
          if cr < cl || (cr = cl && edge.(l + 1) < edge.(l)) then l + 1 else l
        end
        else l
      in
      let cc = clock.(c) in
      if cc < c0 || (cc = c0 && edge.(c) < e0) then begin
        clock.(!i) <- cc;
        edge.(!i) <- edge.(c);
        i := c
      end
      else sinking := false
    end
  done;
  clock.(!i) <- c0;
  edge.(!i) <- e0

(* Union-find over the scratch: path compression, union by rank. *)
let rec find s x =
  let p = s.parent.(x) in
  if p = x then x
  else begin
    let r = find s p in
    s.parent.(x) <- r;
    r
  end

(* Weighted contraction via exponential clocks: give edge e an arrival time
   Exp(w_e) = -ln(U)/w_e and contract edges in arrival order until
   [target] super-vertices remain. The first-arrival process picks each
   next edge with probability proportional to its weight among live edges,
   so this is exactly weighted Karger contraction. The clocks are
   heapified in O(m) and popped only until [target] super-vertices remain
   — a small fraction of m on dense graphs — so a run costs
   O(m + pops · log m). Returns the classes left: more than [target] when
   the clocks ran out first (a disconnected graph).

   Clocks are drawn in the canonical order of [edges] ([Ugraph.edges g]),
   so a run is a pure function of (stream, graph content), never of
   insertion history. *)
let contract_scratch rng ~edges ~n s ~target =
  let m = Array.length edges in
  for e = 0 to m - 1 do
    let u01 =
      let rec nonzero () =
        let x = Prng.float rng 1.0 in
        if x = 0.0 then nonzero () else x
      in
      nonzero ()
    in
    let _, _, w = edges.(e) in
    s.clock.(e) <- -.log u01 /. w;
    s.edge.(e) <- e
  done;
  for i = (m / 2) - 1 downto 0 do
    sift_down s m i
  done;
  for v = 0 to n - 1 do
    s.parent.(v) <- v;
    s.rank.(v) <- 0
  done;
  let classes = ref n in
  let union a b =
    let ra = find s a and rb = find s b in
    if ra <> rb then begin
      decr classes;
      if s.rank.(ra) < s.rank.(rb) then s.parent.(ra) <- rb
      else if s.rank.(ra) > s.rank.(rb) then s.parent.(rb) <- ra
      else begin
        s.parent.(rb) <- ra;
        s.rank.(ra) <- s.rank.(ra) + 1
      end
    end
  in
  let size = ref m in
  while !classes > target && !size > 0 do
    let u, v, _ = edges.(s.edge.(0)) in
    decr size;
    s.clock.(0) <- s.clock.(!size);
    s.edge.(0) <- s.edge.(!size);
    sift_down s !size 0;
    union u v
  done;
  !classes

let contract rng s ~edges ~n ~classes =
  if contract_scratch rng ~edges ~n s ~target:classes > classes then None
  else begin
    let id = Array.make n (-1) and f = Array.make n 0 and k = ref 0 in
    for v = 0 to n - 1 do
      let r = find s v in
      if id.(r) < 0 then begin
        id.(r) <- !k;
        incr k
      end;
      f.(v) <- id.(r)
    done;
    Some f
  end

(* One run contracts to two classes; the cut evaluation goes through the
   frozen CSR view ([csr], shared read-only across repetitions and
   domains). *)
let run_once_scratch rng ~edges ~n csr s =
  if n < 2 then invalid_arg "Karger.run_once: need >= 2 vertices";
  if Array.length edges = 0 then
    invalid_arg "Karger.run_once: graph disconnected (no edges)";
  if contract_scratch rng ~edges ~n s ~target:2 > 2 then
    invalid_arg "Karger.run_once: graph disconnected (ran out of edges)";
  let rep = find s 0 in
  let cut = Cut.of_mem ~n (fun v -> find s v = rep) in
  (Csr.cut_value csr cut, cut)

let run_once rng g =
  let n = Ugraph.n g in
  let edges = Ugraph.edges g in
  let s = make_scratch ~edges:(Array.length edges) ~vertices:n in
  run_once_scratch rng ~edges ~n (Csr.of_ugraph g) s

(* Contraction runs are independent, so they fan out over domains through
   the pool: run [t] draws from the pure child stream
   [split master t] (the shared inputs are only read), each worker domain
   reuses one {!scratch}, and the winner is picked sequentially in run
   order — first strictly-smaller value wins, exactly as the sequential
   loop did. *)
let parallel_runs ?domains rng ~trials g =
  let master = Prng.fork rng in
  let csr = Csr.of_ugraph g in
  let n = Ugraph.n g in
  let edges = Ugraph.edges g in
  let m = Array.length edges in
  Dcs_util.Pool.run_batched ?domains
    ~arena:(fun () -> make_scratch ~edges:m ~vertices:n)
    ~n:trials
    (fun s t -> run_once_scratch (Prng.split master t) ~edges ~n csr s)

let mincut ?domains rng ~trials g =
  if trials < 1 then invalid_arg "Karger.mincut: trials >= 1";
  let runs = parallel_runs ?domains rng ~trials g in
  let best = ref runs.(0) in
  for t = 1 to trials - 1 do
    let v, _ = runs.(t) in
    if v < fst !best then best := runs.(t)
  done;
  !best

(* Canonical key for a cut up to complementation: the side containing
   vertex 0, rendered as its sorted vertex list. *)
let cut_key c =
  let c = if Cut.mem c 0 then c else Cut.complement c in
  String.concat "," (List.map string_of_int (Cut.to_list c))

let candidate_cuts rng ~trials ~factor g =
  if factor < 1.0 then invalid_arg "Karger.candidate_cuts: factor >= 1";
  let runs = parallel_runs rng ~trials g in
  let seen : (string, float * Cut.t) Hashtbl.t = Hashtbl.create 64 in
  let best = ref infinity in
  Array.iter
    (fun (v, c) ->
      best := Float.min !best v;
      let key = cut_key c in
      if not (Hashtbl.mem seen key) then Hashtbl.add seen key (v, c))
    runs;
  Hashtbl.fold
    (fun _ (v, c) acc -> if v <= (factor *. !best) +. 1e-9 then (v, c) :: acc else acc)
    seen []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
