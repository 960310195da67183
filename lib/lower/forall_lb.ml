module Prng = Dcs_util.Prng
module Digraph = Dcs_graph.Digraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut
module Bits = Dcs_util.Bits
module Bitstring = Dcs_comm.Bitstring
module Gap_hamming = Dcs_comm.Gap_hamming
module Sketch = Dcs_sketch.Sketch

type params = { n : int; beta : int; inv_eps_sq : int }

(* The paper's Gap-Hamming gap constant c. *)
let gap_c = 0.25

let make_params ~beta ~inv_eps_sq n =
  if beta < 1 then invalid_arg "Forall_lb: beta >= 1";
  if inv_eps_sq < 4 || inv_eps_sq mod 4 <> 0 then
    invalid_arg "Forall_lb: 1/eps^2 must be a positive multiple of 4";
  let block = beta * inv_eps_sq in
  if n <= 0 || n mod block <> 0 || n / block < 2 then
    invalid_arg
      (Printf.sprintf
         "Forall_lb: n (%d) must be a multiple of block %d with at least 2 blocks"
         n block);
  if block mod 2 <> 0 then invalid_arg "Forall_lb: block must be even";
  { n; beta; inv_eps_sq }

let block_size p = p.beta * p.inv_eps_sq
let layout p = Layout.create ~n:p.n ~block:(block_size p)
let eps p = 1.0 /. sqrt (float_of_int p.inv_eps_sq)
let strings_per_pair p = block_size p * p.beta
let total_strings p = strings_per_pair p * ((layout p).Layout.chains - 1)
let bits_capacity p = total_strings p * p.inv_eps_sq
let balance_upper_bound p = 2.0 *. float_of_int p.beta

type address = { pair : int; i : int; j : int }

let address_of_string_index p g =
  if g < 0 || g >= total_strings p then invalid_arg "Forall_lb: string index";
  let per_pair = strings_per_pair p in
  let pair = g / per_pair in
  let r = g mod per_pair in
  { pair; i = r / p.beta; j = r mod p.beta }

let string_index_of_address p a =
  (a.pair * strings_per_pair p) + (a.i * p.beta) + a.j

type instance = {
  params : params;
  gh : Gap_hamming.instance;
  graph : Dcs_graph.Digraph.t;
  target : address;
}

(* Vertex of the v-th node of cluster R_j in block [chain]. *)
let right_vertex p lay ~chain ~j ~v =
  Layout.vertex lay ~chain ~offset:((j * p.inv_eps_sq) + v)

let encode p gh =
  if Array.length gh.Gap_hamming.strings <> total_strings p then
    invalid_arg "Forall_lb.encode: wrong number of strings";
  if gh.Gap_hamming.d <> p.inv_eps_sq then
    invalid_arg "Forall_lb.encode: wrong string length";
  let lay = layout p in
  let g = Digraph.create p.n in
  let k = block_size p in
  for pair = 0 to lay.Layout.chains - 2 do
    for i = 0 to k - 1 do
      let left = Layout.vertex lay ~chain:pair ~offset:i in
      for j = 0 to p.beta - 1 do
        let s = gh.Gap_hamming.strings.(string_index_of_address p { pair; i; j }) in
        for v = 0 to p.inv_eps_sq - 1 do
          let w = if s.(v) then 2.0 else 1.0 in
          Digraph.add_edge g left (right_vertex p lay ~chain:(pair + 1) ~j ~v) w
        done
      done
    done
  done;
  Layout.add_backward_edges lay ~weight:(1.0 /. float_of_int p.beta) g;
  { params = p; gh; graph = g; target = address_of_string_index p gh.Gap_hamming.i }

let random_instance rng p =
  let gh =
    Gap_hamming.generate rng ~h:(total_strings p) ~inv_eps_sq:p.inv_eps_sq ~c:gap_c
  in
  encode p gh

type decision = Delta_high | Delta_low

let correct_decision inst =
  if inst.gh.Gap_hamming.high then Delta_high else Delta_low

(* The decode hot paths take the layout as an argument: [layout p] is cheap
   but allocates, and the enumerate decoder issues one cut query per
   half-size subset — reconstructing it inside [query_cut] /
   [fixed_backward_weight] put an allocation in the innermost loop. The
   public wrappers below rebuild it once per call. *)
let query_cut_lay p lay a ~u_mem ~t =
  let block = lay.Layout.block in
  if Bitstring.length t <> p.inv_eps_sq then invalid_arg "Forall_lb.query_cut: t";
  let mem v =
    let chain = v / block in
    if chain >= a.pair + 2 then true
    else if chain = a.pair then u_mem (v mod block)
    else if chain = a.pair + 1 then begin
      let off = v mod block in
      let cluster = off / p.inv_eps_sq and pos = off mod p.inv_eps_sq in
      not (cluster = a.j && t.(pos))
    end
    else false
  in
  Cut.of_mem ~n:p.n mem

let query_cut p a ~u_mem ~t = query_cut_lay p (layout p) a ~u_mem ~t

let fixed_backward_weight_lay p lay a ~u_size =
  let k = lay.Layout.block in
  let half_t = p.inv_eps_sq / 2 in
  (* (V_{p+1}\T) -> (V_p\U), then U -> V_{p-1}, then V_{p+2} -> T. *)
  let within_pair = float_of_int ((k - half_t) * (k - u_size)) in
  let from_u_back = if a.pair >= 1 then float_of_int (u_size * k) else 0.0 in
  let into_t =
    if a.pair + 2 <= lay.Layout.chains - 1 then float_of_int (k * half_t) else 0.0
  in
  (within_pair +. from_u_back +. into_t) /. float_of_int p.beta

let fixed_backward_weight p a ~u_size =
  fixed_backward_weight_lay p (layout p) a ~u_size

let estimate_w_ut_lay p lay ~query a ~u_mem ~t =
  let k = lay.Layout.block in
  let u_size = ref 0 in
  for o = 0 to k - 1 do
    if u_mem o then incr u_size
  done;
  let s = query_cut_lay p lay a ~u_mem ~t in
  query s -. fixed_backward_weight_lay p lay a ~u_size:!u_size

let estimate_w_ut p ~query a ~u_mem ~t =
  estimate_w_ut_lay p (layout p) ~query a ~u_mem ~t

(* The "natural" one-query decoder the paper shows is too weak: estimate
   w({ℓ_i}, T) directly from S = {ℓ_i} ∪ (R\T) ∪ …  and threshold it at
   its midpoint 1/(2ε²) + 1/(4ε²). A (1±ε') sketch answers the Θ(β/ε⁴) cut
   with Θ(ε'β/ε⁴) additive error, which swamps the Θ(1/ε) signal unless ε'
   is tiny — the motivation for the Lemma 4.4 subset enumeration. *)
let decode_single_query p ~query a ~t =
  let est =
    estimate_w_ut p ~query a ~u_mem:(fun o -> o = a.i) ~t
  in
  let d = float_of_int p.inv_eps_sq in
  let midpoint = (d /. 2.0) +. (d /. 4.0) in
  if est >= midpoint then Delta_low else Delta_high

(* Iterate all size-[k] subsets of 0..n-1 as a membership array, announcing
   every membership toggle through [flip]. The binomial recursion changes
   one element per step, so consecutive visited subsets are connected by
   O(1) flips on average (a revolving-door walk): an incremental consumer
   keeps a running cut value via [Csr.cut_delta] instead of recomputing it
   per subset. [flip o] fires after [mem.(o)] changed. *)
let iter_combinations_incremental ~n ~k ~flip ~visit =
  let mem = Array.make n false in
  let rec go start remaining =
    if remaining = 0 then visit mem
    else if n - start >= remaining then begin
      (* include [start] *)
      mem.(start) <- true;
      flip start;
      go (start + 1) (remaining - 1);
      mem.(start) <- false;
      flip start;
      (* skip [start] *)
      go (start + 1) remaining
    end
  in
  go 0 k

let iter_combinations ~n ~k f =
  iter_combinations_incremental ~n ~k ~flip:(fun _ -> ()) ~visit:f

(* Reference decoder: one full-cut sketch query per subset. *)
let decode_enumerate_query p lay ~query a ~t =
  let k = lay.Layout.block in
  let best = ref neg_infinity in
  let best_q = Array.make k false in
  iter_combinations ~n:k ~k:(k / 2) (fun mem ->
      let est = estimate_w_ut_lay p lay ~query a ~u_mem:(fun o -> mem.(o)) ~t in
      if est > !best then begin
        best := est;
        Array.blit mem 0 best_q 0 k
      end);
  if best_q.(a.i) then Delta_low else Delta_high

(* Guard for the incremental (graph-backed) enumeration: C(28,14) ≈ 40M
   subsets at O(1) per step once [Csr.flip_sweep] has summed each left
   vertex's row for the block. Subsets are also carried as int bitmasks
   over left offsets, so the guard must stay < Sys.int_size. *)
let enumerate_guard = 28

(* Guard for the generic one-query-per-subset path. *)
let enumerate_query_guard = 20

(* Reusable buffers for [decode_enumerate_frozen]: the query side array
   plus the flip/visit recording blocks that feed [Csr.flip_sweep]. One
   scratch per worker domain (sized by the params, not the instance)
   serves every trial that domain runs — the decoder then allocates
   nothing proportional to the C(k, k/2) walk. *)
type decode_scratch = {
  scratch_n : int;
  side : bool array;        (* query-cut membership, length n *)
  flips : int array;        (* recorded membership toggles (vertex ids) *)
  vals : float array;       (* running cut value after each flip *)
  visit_at : int array;     (* #flips recorded when a subset was visited *)
  visit_mask : int array;   (* that subset, as a bitmask over 0..k-1 *)
}

let scratch_block = 4096

let decode_scratch p =
  {
    scratch_n = p.n;
    side = Array.make p.n false;
    flips = Array.make scratch_block 0;
    vals = Array.make scratch_block 0.0;
    visit_at = Array.make scratch_block 0;
    visit_mask = Array.make scratch_block 0;
  }

(* Incremental decoder for graph-valued sketches, batched: evaluate the
   first query cut from scratch, then walk the subsets recording each
   membership toggle (and each visited subset, as a bitmask) into the
   scratch blocks; a full block is flushed through [Csr.flip_sweep],
   which replays the toggles with [cut_delta]'s exact float operations in
   the same order — so the running values, and the argmax with the same
   strict-> tie-break in the same visiting order, match the one-flip-at-
   a-time loop (and [decode_enumerate_query]) bit for bit whenever cut
   sums are exact in floating point — in particular on the encoder's
   weights {1, 2, 1/β} for β a power of two. *)
let decode_enumerate_frozen ?scratch p csr a ~t =
  let lay = layout p in
  let block = lay.Layout.block in
  let k = block in
  if k > enumerate_guard then
    invalid_arg
      (Printf.sprintf "Forall_lb.decode_enumerate: k too large (> %d)"
         enumerate_guard);
  if Bitstring.length t <> p.inv_eps_sq then invalid_arg "Forall_lb.query_cut: t";
  let s =
    match scratch with
    | None -> decode_scratch p
    | Some s ->
        if s.scratch_n <> p.n then
          invalid_arg "Forall_lb.decode_enumerate: scratch built for other params";
        s
  in
  let side = s.side in
  (* Membership of the query cut with U = ∅ (cf. [query_cut_lay]). *)
  for v = 0 to p.n - 1 do
    let chain = v / block in
    side.(v) <-
      (if chain >= a.pair + 2 then true
       else if chain = a.pair then false
       else if chain = a.pair + 1 then begin
         let off = v mod block in
         let cluster = off / p.inv_eps_sq and pos = off mod p.inv_eps_sq in
         not (cluster = a.j && t.(pos))
       end
       else false)
  done;
  let base = Layout.block_start lay a.pair in
  let cur = ref (Csr.cut_weight csr (fun v -> side.(v))) in
  let back = fixed_backward_weight_lay p lay a ~u_size:(k / 2) in
  let best = ref neg_infinity in
  let best_mask = ref 0 in
  let mask = ref 0 in
  let nflips = ref 0 in
  let nvisits = ref 0 in
  let flush () =
    let v0 = !cur in
    if !nflips > 0 then
      cur :=
        Csr.flip_sweep ~len:!nflips csr ~side ~init:v0 ~flips:s.flips
          ~vals:s.vals;
    for q = 0 to !nvisits - 1 do
      let c = s.visit_at.(q) in
      let est = (if c = 0 then v0 else s.vals.(c - 1)) -. back in
      if est > !best then begin
        best := est;
        best_mask := s.visit_mask.(q)
      end
    done;
    nflips := 0;
    nvisits := 0
  in
  iter_combinations_incremental ~n:k ~k:(k / 2)
    ~flip:(fun o ->
      if !nflips = scratch_block then flush ();
      s.flips.(!nflips) <- base + o;
      incr nflips;
      mask := !mask lxor (1 lsl o))
    ~visit:(fun _ ->
      if !nvisits = scratch_block then flush ();
      s.visit_at.(!nvisits) <- !nflips;
      s.visit_mask.(!nvisits) <- !mask;
      incr nvisits);
  flush ();
  if (!best_mask lsr a.i) land 1 = 1 then Delta_low else Delta_high

let decode_enumerate ?graph ?scratch p ~query a ~t =
  let lay = layout p in
  let k = lay.Layout.block in
  match graph with
  | Some g -> decode_enumerate_frozen ?scratch p (Csr.of_digraph g) a ~t
  | None ->
      (* A generic sketch costs a full query per subset. *)
      if k > enumerate_query_guard then
        invalid_arg
          (Printf.sprintf "Forall_lb.decode_enumerate: k too large (> %d)"
             enumerate_query_guard);
      decode_enumerate_query p lay ~query a ~t

(* Per-left-vertex score on a graph-valued sketch: sampled forward weight
   from ℓ_i into T. Summing scores over U gives exactly the sketch's
   estimate of w(U, T), so the top-k/2 set maximizes it over half-size
   subsets (Lemma 4.4's argmax, computed in polynomial time). *)
let topk_q_set p ~sketch_graph a ~t =
  let lay = layout p in
  let k = lay.Layout.block in
  let scores =
    Array.init k (fun i ->
        let left = Layout.vertex lay ~chain:a.pair ~offset:i in
        let acc = ref 0.0 in
        for v = 0 to p.inv_eps_sq - 1 do
          if t.(v) then
            (* [Layout.vertex] already validated both endpoints, so the
               k·(1/ε²) probes skip the per-lookup bounds checks. *)
            acc :=
              !acc
              +. Digraph.unsafe_weight sketch_graph left
                   (right_vertex p lay ~chain:(a.pair + 1) ~j:a.j ~v)
        done;
        !acc)
  in
  let order = Array.init k (fun i -> i) in
  Array.sort (fun x y -> compare scores.(y) scores.(x)) order;
  let q = Array.make k false in
  for r = 0 to (k / 2) - 1 do
    q.(order.(r)) <- true
  done;
  q

let decode_topk p ~sketch_graph a ~t =
  let q = topk_q_set p ~sketch_graph a ~t in
  if q.(a.i) then Delta_low else Delta_high

let lemma43_stats inst =
  let p = inst.params in
  let a = inst.target in
  let k = block_size p in
  let t = inst.gh.Gap_hamming.t in
  let quarter = float_of_int p.inv_eps_sq /. 4.0 in
  let gap_half = float_of_int inst.gh.Gap_hamming.gap /. 2.0 in
  let high = ref 0 and low = ref 0 in
  for i = 0 to k - 1 do
    let s = inst.gh.Gap_hamming.strings.(string_index_of_address p { a with i }) in
    let overlap = float_of_int (Bitstring.intersection_size s t) in
    if overlap >= quarter +. gap_half then incr high
    else if overlap <= quarter -. gap_half then incr low
  done;
  (!high, !low)

let codec_bits p =
  let c = Bits.create () in
  Bits.write_nonneg c p.n;
  Bits.write_nonneg c p.beta;
  Bits.write_nonneg c p.inv_eps_sq;
  Bits.write_float c gap_c;
  Bits.add c (bits_capacity p);
  Bits.total c

let codec_sketch inst =
  let g = inst.graph in
  let csr = Csr.of_digraph g in
  {
    Sketch.name = "instance-codec(for-all)";
    size_bits = codec_bits inst.params;
    query = (fun s -> Csr.cut_value csr s);
    graph = Some g;
  }

type trial_stats = {
  trials : int;
  correct : int;
  success_rate : float;
  mean_sketch_bits : float;
}

let run_trials ?domains rng p ~sketch_of ~decoder ~trials =
  if trials <= 0 then invalid_arg "Forall_lb.run_trials";
  (* Same seed-splitting discipline as [Foreach_lb.run_trials]: trial [t]'s
     randomness is a pure function of (master, t), so any domain count gives
     the same stats. Trials fan out through the pool; each worker
     domain reuses one [decode_scratch], which only the enumerate decoder
     touches (and every decoder ignores at will — the decision is a pure
     function of the trial index either way). *)
  let master = Prng.fork rng in
  let one_trial scratch t =
    let rng = Prng.split master t in
    let inst = random_instance rng p in
    let sk = sketch_of rng inst in
    let t = inst.gh.Gap_hamming.t in
    let decision =
      match decoder with
      | `Single -> decode_single_query p ~query:sk.Sketch.query inst.target ~t
      | `Enumerate ->
          decode_enumerate ?graph:sk.Sketch.graph ~scratch p
            ~query:sk.Sketch.query inst.target ~t
      | `Topk -> (
          match sk.Sketch.graph with
          | Some g -> decode_topk p ~sketch_graph:g inst.target ~t
          | None ->
              invalid_arg "Forall_lb.run_trials: `Topk needs a graph-valued sketch")
    in
    (decision = correct_decision inst, float_of_int sk.Sketch.size_bits)
  in
  let per_trial =
    Dcs_util.Pool.run_batched ?domains
      ~arena:(fun () -> decode_scratch p)
      ~n:trials one_trial
  in
  let correct =
    Array.fold_left (fun acc (ok, _) -> if ok then acc + 1 else acc) 0 per_trial
  in
  let sketch_bits = Array.fold_left (fun acc (_, b) -> acc +. b) 0.0 per_trial in
  {
    trials;
    correct;
    success_rate = float_of_int correct /. float_of_int trials;
    mean_sketch_bits = sketch_bits /. float_of_int trials;
  }
