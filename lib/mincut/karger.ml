module Ugraph = Dcs_graph.Ugraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut
module Prng = Dcs_util.Prng

(* Per-domain scratch for one contraction run: edge clocks, the index
   permutation that sorts them, and union-find state. Sized once per
   worker domain and reused across every run that domain executes, so a
   run allocates only its result cut — per-run allocation is what made
   multi-domain fan-out collapse on the minor-GC rendezvous (BENCH_005's
   E10), so the hot loop stays out of the allocator entirely. *)
type scratch = {
  times : float array;
  order : int array;
  parent : int array;
  rank : int array;
}

let make_scratch ~edges:m ~vertices:n =
  {
    times = Array.make (max 1 m) 0.0;
    order = Array.make (max 1 m) 0;
    parent = Array.make (max 1 n) 0;
    rank = Array.make (max 1 n) 0;
  }

(* Weighted contraction via exponential clocks: give edge e an arrival time
   Exp(w_e) = -ln(U)/w_e and contract edges in arrival order until two
   super-vertices remain. The first-arrival process picks each next edge
   with probability proportional to its weight among live edges, so this is
   exactly weighted Karger contraction, in O(m log m) per run.

   The RNG stream is a function of [Ugraph.edges g] order — [eu]/[ev]/[ew]
   are that edge list flattened, and clocks are drawn in slot order — so
   the clock assignment is unchanged from the pre-arena implementation;
   only the final cut evaluation goes through the frozen CSR view ([csr],
   shared read-only across repetitions and domains). *)
let run_once_scratch rng ~eu ~ev ~ew ~n csr s =
  if n < 2 then invalid_arg "Karger.run_once: need >= 2 vertices";
  let m = Array.length eu in
  if m = 0 then invalid_arg "Karger.run_once: graph disconnected (no edges)";
  for e = 0 to m - 1 do
    let u01 =
      let rec nonzero () =
        let x = Prng.float rng 1.0 in
        if x = 0.0 then nonzero () else x
      in
      nonzero ()
    in
    s.times.(e) <- -.log u01 /. ew.(e);
    s.order.(e) <- e
  done;
  Array.sort (fun a b -> compare s.times.(a) s.times.(b)) s.order;
  for v = 0 to n - 1 do
    s.parent.(v) <- v;
    s.rank.(v) <- 0
  done;
  let classes = ref n in
  let rec find x =
    let p = s.parent.(x) in
    if p = x then x
    else begin
      let r = find p in
      s.parent.(x) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
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
  let i = ref 0 in
  while !classes > 2 && !i < m do
    let e = s.order.(!i) in
    incr i;
    union eu.(e) ev.(e)
  done;
  if !classes > 2 then
    invalid_arg "Karger.run_once: graph disconnected (ran out of edges)";
  let rep = find 0 in
  let cut = Cut.of_mem ~n (fun v -> find v = rep) in
  (Csr.cut_value csr cut, cut)

let flatten_edges g =
  let edges = Array.of_list (Ugraph.edges g) in
  let eu = Array.map (fun (u, _, _) -> u) edges in
  let ev = Array.map (fun (_, v, _) -> v) edges in
  let ew = Array.map (fun (_, _, w) -> w) edges in
  (eu, ev, ew)

let run_once rng g =
  let n = Ugraph.n g in
  let eu, ev, ew = flatten_edges g in
  let s = make_scratch ~edges:(Array.length eu) ~vertices:n in
  run_once_scratch rng ~eu ~ev ~ew ~n (Csr.of_ugraph g) s

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
  let eu, ev, ew = flatten_edges g in
  let m = Array.length eu in
  Dcs_util.Pool.run_batched ?domains
    ~arena:(fun () -> make_scratch ~edges:m ~vertices:n)
    ~n:trials
    (fun s t -> run_once_scratch (Prng.split master t) ~eu ~ev ~ew ~n csr s)

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

let candidate_cuts ?domains rng ~trials ~factor g =
  if factor < 1.0 then invalid_arg "Karger.candidate_cuts: factor >= 1";
  let runs = parallel_runs ?domains rng ~trials g in
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
