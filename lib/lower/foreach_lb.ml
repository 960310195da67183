module Prng = Dcs_util.Prng
module Digraph = Dcs_graph.Digraph
module Cut = Dcs_graph.Cut
module Decode_matrix = Dcs_linalg.Decode_matrix
module Pm_vector = Dcs_linalg.Pm_vector
module Bits = Dcs_util.Bits
module Sketch = Dcs_sketch.Sketch
module Metrics = Dcs_obs_core.Metrics
module Trace = Dcs_obs_core.Trace

let m_bits_decoded = Metrics.counter "foreach_lb.bits_decoded"
let m_cut_queries = Metrics.counter "foreach_lb.cut_queries"

type params = { n : int; beta : int; inv_eps : int }

(* The paper's ‖x‖_∞ bound constant c₁. *)
let c1 = 2.0

let is_power_of_two x = x > 0 && x land (x - 1) = 0

let int_sqrt x =
  let r = int_of_float (Float.round (sqrt (float_of_int x))) in
  if r * r = x then Some r else None

let make_params ~beta ~inv_eps n =
  if beta < 1 then invalid_arg "Foreach_lb: beta >= 1";
  if not (is_power_of_two inv_eps) || inv_eps < 2 then
    invalid_arg "Foreach_lb: 1/eps must be a power of two >= 2";
  (match int_sqrt beta with
  | None -> invalid_arg "Foreach_lb: beta must be a perfect square"
  | Some _ -> ());
  let p = { n; beta; inv_eps } in
  let block =
    match int_sqrt beta with Some sb -> sb * inv_eps | None -> assert false
  in
  if n <= 0 || n mod block <> 0 || n / block < 2 then
    invalid_arg
      (Printf.sprintf
         "Foreach_lb: n (%d) must be a multiple of block %d with at least 2 blocks"
         n block);
  p

let sqrt_beta p =
  match int_sqrt p.beta with Some sb -> sb | None -> assert false

let block_size p = sqrt_beta p * p.inv_eps
let layout p = Layout.create ~n:p.n ~block:(block_size p)
let eps p = 1.0 /. float_of_int p.inv_eps
let ln_inv_eps p = log (float_of_int p.inv_eps)

let bits_per_cluster p = (p.inv_eps - 1) * (p.inv_eps - 1)
let bits_per_pair p = p.beta * bits_per_cluster p
let bits_capacity p = bits_per_pair p * ((layout p).Layout.chains - 1)

let weight_base p = 2.0 *. c1 *. ln_inv_eps p
let weight_low p = c1 *. ln_inv_eps p
let weight_high p = 3.0 *. c1 *. ln_inv_eps p
let balance_upper_bound p = weight_high p *. float_of_int p.beta

let infnorm_bound p = c1 *. ln_inv_eps p *. float_of_int p.inv_eps

type instance = {
  params : params;
  s : int array;
  graph : Dcs_graph.Digraph.t;
  failed : bool array;
}

type address = { pair : int; ci : int; cj : int; t : int }

let address_of_index p q =
  if q < 0 || q >= bits_capacity p then invalid_arg "Foreach_lb: bit index";
  let per_pair = bits_per_pair p in
  let per_cluster = bits_per_cluster p in
  let sb = sqrt_beta p in
  let pair = q / per_pair in
  let r = q mod per_pair in
  let cp = r / per_cluster in
  { pair; ci = cp / sb; cj = cp mod sb; t = r mod per_cluster }

let index_of_address p a =
  let per_pair = bits_per_pair p in
  let per_cluster = bits_per_cluster p in
  let sb = sqrt_beta p in
  (a.pair * per_pair) + (((a.ci * sb) + a.cj) * per_cluster) + a.t

(* Global index of a cluster pair (used for the failure bitmap). *)
let cluster_pair_index p a = (a.pair * p.beta) + (a.ci * sqrt_beta p) + a.cj

let failed_at inst q =
  let a = address_of_index inst.params q in
  inst.failed.(cluster_pair_index inst.params a)

(* Vertex of position [pos] in cluster [c] of block [chain]. *)
let cluster_vertex p lay ~chain ~cluster ~pos =
  Layout.vertex lay ~chain ~offset:((cluster * p.inv_eps) + pos)

let encode p ~s =
  if Array.length s <> bits_capacity p then
    invalid_arg "Foreach_lb.encode: wrong string length";
  Array.iter (fun z -> if z <> 1 && z <> -1 then invalid_arg "Foreach_lb.encode: signs") s;
  Trace.with_span "foreach_lb.encode" @@ fun () ->
  let lay = layout p in
  let dm = Decode_matrix.create ~k:(Dcs_util.Stats.log2 (float_of_int p.inv_eps) |> int_of_float) in
  assert (Decode_matrix.q dm = p.inv_eps);
  let g = Digraph.create p.n in
  let sb = sqrt_beta p in
  let per_cluster = bits_per_cluster p in
  let failed = Array.make ((lay.Layout.chains - 1) * p.beta) false in
  let bound = infnorm_bound p in
  let base = weight_base p in
  let e = eps p in
  for pair = 0 to lay.Layout.chains - 2 do
    for ci = 0 to sb - 1 do
      for cj = 0 to sb - 1 do
        let a = { pair; ci; cj; t = 0 } in
        let start = index_of_address p a in
        let z = Array.sub s start per_cluster in
        let x = Decode_matrix.superpose dm z in
        let ok = Array.for_all (fun v -> Float.abs v <= bound) x in
        if not ok then failed.(cluster_pair_index p a) <- true;
        for u = 0 to p.inv_eps - 1 do
          for v = 0 to p.inv_eps - 1 do
            let w =
              if ok then (e *. x.((u * p.inv_eps) + v)) +. base else base
            in
            Digraph.add_edge g
              (cluster_vertex p lay ~chain:pair ~cluster:ci ~pos:u)
              (cluster_vertex p lay ~chain:(pair + 1) ~cluster:cj ~pos:v)
              w
          done
        done
      done
    done
  done;
  Layout.add_backward_edges lay ~weight:(1.0 /. float_of_int p.beta) g;
  { params = p; s = Array.copy s; graph = g; failed }

let random_instance rng p =
  let s = Array.init (bits_capacity p) (fun _ -> Prng.sign rng) in
  encode p ~s

(* The decode matrix row for a bit address, as its two tensor factors. *)
let row_factors p a =
  let k = int_of_float (Dcs_util.Stats.log2 (float_of_int p.inv_eps)) in
  let dm = Decode_matrix.create ~k in
  Decode_matrix.row_factors dm a.t

let query_cut p a ~side_a ~side_b =
  if abs side_a <> 1 || abs side_b <> 1 then invalid_arg "Foreach_lb.query_cut: sides";
  let lay = layout p in
  let h_a, h_b = row_factors p a in
  let block = lay.Layout.block in
  let mem v =
    let chain = v / block in
    if chain >= a.pair + 2 then true
    else if chain = a.pair then begin
      let off = v mod block in
      let cluster = off / p.inv_eps and pos = off mod p.inv_eps in
      cluster = a.ci && h_a.(pos) = side_a
    end
    else if chain = a.pair + 1 then begin
      let off = v mod block in
      let cluster = off / p.inv_eps and pos = off mod p.inv_eps in
      not (cluster = a.cj && h_b.(pos) = side_b)
    end
    else false
  in
  Cut.of_mem ~n:p.n mem

let fixed_backward_weight p a =
  let lay = layout p in
  let block = lay.Layout.block in
  (* |A| = |B| = 1/(2ε) for every sign combination by row balance. *)
  let half = p.inv_eps / 2 in
  let within_pair = float_of_int ((block - half) * (block - half)) in
  let from_a_back =
    if a.pair >= 1 then float_of_int (half * block) else 0.0
  in
  let into_b =
    if a.pair + 2 <= lay.Layout.chains - 1 then float_of_int (block * half)
    else 0.0
  in
  (within_pair +. from_a_back +. into_b) /. float_of_int p.beta

type decode_result = { decoded : int; estimate : float; queries_used : int }

let decode_bit p ~query q =
  Trace.with_span "foreach_lb.decode_bit" @@ fun () ->
  Metrics.inc m_bits_decoded;
  Metrics.inc ~by:4 m_cut_queries;
  let a = address_of_index p q in
  let back = fixed_backward_weight p a in
  let combo side_a side_b =
    let s = query_cut p a ~side_a ~side_b in
    query s -. back
  in
  (* ⟨w, M_t⟩ = w(A,B) - w(Ā,B) - w(A,B̄) + w(Ā,B̄). *)
  let estimate =
    combo 1 1 -. combo (-1) 1 -. combo 1 (-1) +. combo (-1) (-1)
  in
  { decoded = (if estimate >= 0.0 then 1 else -1); estimate; queries_used = 4 }

let codec_bits p =
  let c = Bits.create () in
  Bits.write_nonneg c p.n;
  Bits.write_nonneg c p.beta;
  Bits.write_nonneg c p.inv_eps;
  Bits.write_float c c1;
  Bits.add c (bits_capacity p);
  Bits.total c

let codec_sketch inst =
  (* The graph is a deterministic function of (params, s); transmitting s is
     a complete description, so the codec answers queries exactly. *)
  let g = inst.graph in
  let csr = Dcs_graph.Csr.of_digraph g in
  {
    Sketch.name = "instance-codec(for-each)";
    size_bits = codec_bits inst.params;
    query = (fun s -> Dcs_graph.Csr.cut_value csr s);
    graph = Some g;
  }

type trial_stats = {
  trials : int;
  bits_tested : int;
  correct : int;
  success_rate : float;
  encode_failure_rate : float;
  mean_sketch_bits : float;
}

let run_trials rng p ~sketch_of ~trials ~bits_per_trial =
  if trials <= 0 || bits_per_trial <= 0 then invalid_arg "Foreach_lb.run_trials";
  (* Fork once so successive calls on the same rng see fresh streams, then
     give trial [t] the pure child stream [split master t]: the per-trial
     randomness depends only on (master, t), never on the domain count. *)
  let master = Prng.fork rng in
  let one_trial t =
    let rng = Prng.split master t in
    let inst = random_instance rng p in
    let sk = sketch_of rng inst in
    let correct = ref 0 and in_failed = ref 0 in
    for _ = 1 to bits_per_trial do
      let q = Prng.int rng (bits_capacity p) in
      if failed_at inst q then incr in_failed;
      let r = decode_bit p ~query:sk.Sketch.query q in
      if r.decoded = inst.s.(q) then incr correct
    done;
    (!correct, !in_failed, float_of_int sk.Sketch.size_bits)
  in
  let per_trial = Dcs_util.Pool.parallel_init ~n:trials one_trial in
  let correct = Array.fold_left (fun acc (c, _, _) -> acc + c) 0 per_trial in
  let in_failed = Array.fold_left (fun acc (_, f, _) -> acc + f) 0 per_trial in
  let sketch_bits = Array.fold_left (fun acc (_, _, b) -> acc +. b) 0.0 per_trial in
  let total = trials * bits_per_trial in
  {
    trials;
    bits_tested = total;
    correct;
    success_rate = float_of_int correct /. float_of_int total;
    encode_failure_rate = float_of_int in_failed /. float_of_int total;
    mean_sketch_bits = sketch_bits /. float_of_int trials;
  }
