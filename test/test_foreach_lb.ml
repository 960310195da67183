open Dcs
module F = Foreach_lb

let check_float = Alcotest.(check (float 1e-9))

let small_params () = F.make_params ~beta:4 ~inv_eps:4 32
(* beta=4 -> sqrt_beta=2; block = 2*4 = 8; chains = 4. *)

(* --- parameter validation --- *)

let test_params_derived () =
  let p = small_params () in
  Alcotest.(check int) "block" 8 (F.block_size p);
  Alcotest.(check int) "sqrt beta" 2 (F.sqrt_beta p);
  check_float "eps" 0.25 (F.eps p);
  Alcotest.(check int) "bits/cluster" 9 ((F.bits_per_pair p) / 4);
  Alcotest.(check int) "capacity" (4 * 9 * 3) (F.bits_capacity p)

let test_params_validation () =
  Alcotest.check_raises "beta not square"
    (Invalid_argument "Foreach_lb: beta must be a perfect square") (fun () ->
      ignore (F.make_params ~beta:3 ~inv_eps:4 32));
  Alcotest.check_raises "inv_eps not power of 2"
    (Invalid_argument "Foreach_lb: 1/eps must be a power of two >= 2") (fun () ->
      ignore (F.make_params ~beta:4 ~inv_eps:6 32));
  Alcotest.check_raises "n not multiple"
    (Invalid_argument
       "Foreach_lb: n (30) must be a multiple of block 8 with at least 2 blocks")
    (fun () -> ignore (F.make_params ~beta:4 ~inv_eps:4 30))

let test_address_roundtrip () =
  let p = small_params () in
  for q = 0 to F.bits_capacity p - 1 do
    let a = F.address_of_index p q in
    Alcotest.(check int) "roundtrip" q (F.index_of_address p a)
  done

let test_address_ranges () =
  let p = small_params () in
  for q = 0 to F.bits_capacity p - 1 do
    let a = F.address_of_index p q in
    Alcotest.(check bool) "pair range" true (a.F.pair >= 0 && a.F.pair < 3);
    Alcotest.(check bool) "cluster range" true
      (a.F.ci >= 0 && a.F.ci < 2 && a.F.cj >= 0 && a.F.cj < 2);
    Alcotest.(check bool) "t range" true (a.F.t >= 0 && a.F.t < 9)
  done

(* --- encoding --- *)

let random_inst seed p =
  let rng = Prng.create seed in
  F.random_instance rng p

let test_encode_graph_shape () =
  let p = small_params () in
  let inst = random_inst 1 p in
  let g = inst.F.graph in
  Alcotest.(check int) "n" 32 (Digraph.n g);
  (* forward + backward between each of 3 consecutive pairs: 2 * 3 * 64 *)
  Alcotest.(check int) "m" (2 * 3 * 64) (Digraph.m g)

let test_encode_weight_range () =
  let p = small_params () in
  let inst = random_inst 2 p in
  let lo = F.weight_low p and hi = F.weight_high p in
  Digraph.iter_edges inst.F.graph (fun u v w ->
      let cu = u / F.block_size p and cv = v / F.block_size p in
      if cv = cu + 1 then
        (* forward edge *)
        Alcotest.(check bool) "forward in [c1 L, 3 c1 L]" true
          (w >= lo -. 1e-9 && w <= hi +. 1e-9)
      else begin
        Alcotest.(check int) "backward goes one block left" (cu - 1) cv;
        check_float "backward weight" (1.0 /. 4.0) w
      end)

let test_encode_strongly_connected () =
  let p = small_params () in
  let inst = random_inst 3 p in
  Alcotest.(check bool) "strongly connected" true
    (Traversal.is_strongly_connected inst.F.graph)

let test_encode_balance_certificate () =
  let p = small_params () in
  let inst = random_inst 4 p in
  Alcotest.(check bool) "edgewise balance within bound" true
    (Balance.edgewise_upper_bound inst.F.graph <= F.balance_upper_bound p +. 1e-9)

let test_encode_balance_sampled () =
  let p = small_params () in
  let inst = random_inst 5 p in
  let rng = Prng.create 50 in
  let b = Balance.sampled_lower_bound rng ~trials:100 inst.F.graph in
  Alcotest.(check bool) "sampled cuts within certificate" true
    (b <= F.balance_upper_bound p +. 1e-9)

let test_encode_deterministic () =
  let p = small_params () in
  let rng = Prng.create 6 in
  let s = Array.init (F.bits_capacity p) (fun _ -> Prng.sign rng) in
  let a = F.encode p ~s and b = F.encode p ~s in
  Alcotest.(check bool) "same graph" true (Digraph.equal a.F.graph b.F.graph)

let test_encode_rejects_bad_string () =
  let p = small_params () in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Foreach_lb.encode: wrong string length") (fun () ->
      ignore (F.encode p ~s:[| 1; -1 |]));
  let s = Array.make (F.bits_capacity p) 1 in
  s.(0) <- 0;
  Alcotest.check_raises "bad sign" (Invalid_argument "Foreach_lb.encode: signs")
    (fun () -> ignore (F.encode p ~s))

(* --- the queried cut (Figure 1 anatomy) --- *)

let test_query_cut_shape () =
  let p = small_params () in
  let a = { F.pair = 1; ci = 0; cj = 1; t = 2 } in
  let s11 = F.query_cut p a ~side_a:1 ~side_b:1 in
  (* |A| = 1/(2eps) = 2, plus |V_2 \ B| = 8 - 2 = 6, plus V_3 (8). *)
  Alcotest.(check int) "cardinality" (2 + 6 + 8) (Cut.cardinal s11);
  Alcotest.(check bool) "proper" true (Cut.is_proper s11)

let test_fixed_backward_matches_skeleton () =
  (* The closed-form backward weight must equal the actual crossing weight
     of the instance-independent backward skeleton. *)
  let p = small_params () in
  let lay = F.layout p in
  let skeleton = Layout.backward_skeleton lay ~weight:(1.0 /. 4.0) in
  List.iter
    (fun (pair, ci, cj, t) ->
      let a = { F.pair; ci; cj; t } in
      let expected = F.fixed_backward_weight p a in
      List.iter
        (fun (sa, sb) ->
          let s = F.query_cut p a ~side_a:sa ~side_b:sb in
          check_float
            (Printf.sprintf "pair=%d sides=%d,%d" pair sa sb)
            expected (Cut.value skeleton s))
        [ (1, 1); (1, -1); (-1, 1); (-1, -1) ])
    [ (0, 0, 0, 0); (0, 1, 1, 3); (1, 0, 1, 5); (2, 1, 0, 8) ]

let test_forward_crossing_is_a_to_b_only () =
  (* Cut value minus fixed backward equals exactly the weight from A to B. *)
  let p = small_params () in
  let inst = random_inst 7 p in
  let a = { F.pair = 0; ci = 1; cj = 0; t = 1 } in
  let s = F.query_cut p a ~side_a:1 ~side_b:(-1) in
  let cut_val = Cut.value inst.F.graph s in
  let back = F.fixed_backward_weight p a in
  (* Recompute w(A, B) directly. *)
  let lay = F.layout p in
  let direct = ref 0.0 in
  for u = 0 to 31 do
    for v = 0 to 31 do
      if Cut.mem s u && not (Cut.mem s v)
         && Layout.block_of_vertex lay u = 0
         && Layout.block_of_vertex lay v = 1 then
        direct := !direct +. Digraph.weight inst.F.graph u v
    done
  done;
  check_float "cut - back = w(A,B)" !direct (cut_val -. back)

(* --- decoding --- *)

let test_decode_all_bits_exact () =
  let p = small_params () in
  let inst = random_inst 8 p in
  let sk = Exact_sketch.create inst.F.graph in
  let wrong_in_ok_pairs = ref 0 in
  for q = 0 to F.bits_capacity p - 1 do
    let r = F.decode_bit p ~query:sk.Sketch.query q in
    Alcotest.(check int) "4 queries" 4 r.F.queries_used;
    if (not (F.failed_at inst q)) && r.F.decoded <> inst.F.s.(q) then
      incr wrong_in_ok_pairs
  done;
  Alcotest.(check int) "all healthy bits decode" 0 !wrong_in_ok_pairs

let test_decode_estimate_magnitude () =
  let p = small_params () in
  let inst = random_inst 9 p in
  let sk = Exact_sketch.create inst.F.graph in
  for q = 0 to min 30 (F.bits_capacity p - 1) do
    if not (F.failed_at inst q) then begin
      let r = F.decode_bit p ~query:sk.Sketch.query q in
      (* |<w, M_t>| = 1/eps = 4 exactly. *)
      check_float "estimate = z/eps" (float_of_int (inst.F.s.(q) * 4)) r.F.estimate
    end
  done

let test_decode_with_tiny_noise () =
  let p = F.make_params ~beta:1 ~inv_eps:8 32 in
  let rng = Prng.create 10 in
  let inst = F.random_instance rng p in
  let sk = Noisy_oracle.create rng ~eps:0.002 inst.F.graph in
  let correct = ref 0 in
  let total = 120 in
  for _ = 1 to total do
    let q = Prng.int rng (F.bits_capacity p) in
    let r = F.decode_bit p ~query:sk.Sketch.query q in
    if r.F.decoded = inst.F.s.(q) then incr correct
  done;
  Alcotest.(check bool) "noise below threshold: >= 90%" true
    (float_of_int !correct /. float_of_int total >= 0.9)

let test_decode_collapses_at_huge_noise () =
  let p = F.make_params ~beta:1 ~inv_eps:8 32 in
  let rng = Prng.create 11 in
  let inst = F.random_instance rng p in
  let sk = Noisy_oracle.create rng ~eps:0.5 inst.F.graph in
  let correct = ref 0 in
  let total = 300 in
  for _ = 1 to total do
    let q = Prng.int rng (F.bits_capacity p) in
    let r = F.decode_bit p ~query:sk.Sketch.query q in
    if r.F.decoded = inst.F.s.(q) then incr correct
  done;
  let rate = float_of_int !correct /. float_of_int total in
  Alcotest.(check bool) "within noise of chance" true (rate < 0.75)

let test_codec_bits_close_to_capacity () =
  let p = small_params () in
  let cap = F.bits_capacity p in
  let bits = F.codec_bits p in
  Alcotest.(check bool) "codec ~ capacity + header" true
    (bits >= cap && bits <= cap + 200)

let test_codec_sketch_answers_exactly () =
  let p = small_params () in
  let inst = random_inst 12 p in
  let sk = F.codec_sketch inst in
  let rng = Prng.create 13 in
  for _ = 1 to 20 do
    let c = Cut.random rng ~n:32 in
    check_float "codec = truth" (Cut.value inst.F.graph c) (sk.Sketch.query c)
  done

let test_run_trials_exact_high_success () =
  let rng = Prng.create 14 in
  let p = small_params () in
  let st =
    F.run_trials rng p
      ~sketch_of:(fun _ inst -> Exact_sketch.create inst.F.graph)
      ~trials:5 ~bits_per_trial:20
  in
  Alcotest.(check bool) "success >= 0.9" true (st.F.success_rate >= 0.9);
  Alcotest.(check int) "bits tested" 100 st.F.bits_tested

(* The naive one-bit-per-edge scheme on Foreach_lb's parameters: an exact
   oracle decodes every bit, at E11's shapes (β = 1, n = 4/ε, 3 trials of
   80 bits: its "exact" column) and at β = 4. *)
let test_naive_exact_decodes_every_bit () =
  List.iter
    (fun p ->
      let st =
        Naive_foreach.run_trials (Prng.create 16) p
          ~sketch_of:(fun _ inst -> Exact_sketch.create inst.Naive_foreach.graph)
          ~trials:3 ~bits_per_trial:80
      in
      Alcotest.(check int) "bits tested" 240 st.Naive_foreach.bits_tested;
      Alcotest.(check int) "every bit decoded" 240 st.Naive_foreach.correct;
      check_float "success 1.0" 1.0 st.Naive_foreach.success_rate)
    (small_params ()
    :: List.map
         (fun inv_eps -> F.make_params ~beta:1 ~inv_eps (4 * inv_eps))
         [ 8; 16; 32 ])

let test_encode_failure_rate_low () =
  let rng = Prng.create 15 in
  let p = F.make_params ~beta:1 ~inv_eps:8 64 in
  let failures = ref 0 and pairs = ref 0 in
  for _ = 1 to 30 do
    let inst = F.random_instance rng p in
    Array.iter (fun b -> if b then incr failures) inst.F.failed;
    pairs := !pairs + Array.length inst.F.failed
  done;
  let rate = float_of_int !failures /. float_of_int !pairs in
  (* The paper wants <= 1% per cluster pair; c1 = 2 gives plenty of room. *)
  Alcotest.(check bool) "encode failures rare" true (rate <= 0.02)

(* --- the full Lemma 3.1 reduction, played as an Index protocol --- *)

let test_index_game_via_codec () =
  (* Alice's message is the instance codec (|s| + header bits); Bob decodes
     s_i with 4 cut queries against it. This is the reduction of Theorem
     1.1 run end-to-end through the Index harness of Lemma 3.1. *)
  let p = F.make_params ~beta:1 ~inv_eps:4 16 in
  let n_bits = F.bits_capacity p in
  let proto =
    {
      Index_game.encode =
        (fun s ->
          let inst = F.encode p ~s in
          (inst, F.codec_bits p));
      decode =
        (fun inst i ->
          let sk = F.codec_sketch inst in
          (F.decode_bit p ~query:sk.Sketch.query i).F.decoded);
    }
  in
  let rng = Prng.create 99 in
  let r = Index_game.play rng ~n:n_bits ~trials:40 proto in
  (* Codec queries are exact; only encode failures (rare) can cost bits. *)
  Alcotest.(check bool) "success >= 0.9" true (r.Index_game.success_rate >= 0.9);
  Alcotest.(check bool) "message ~ |s|" true
    (r.Index_game.mean_message_bits >= float_of_int n_bits)

(* --- Layout --- *)

let test_layout_arithmetic () =
  let lay = Layout.create ~n:24 ~block:8 in
  Alcotest.(check int) "chains" 3 lay.Layout.chains;
  Alcotest.(check int) "vertex" 17 (Layout.vertex lay ~chain:2 ~offset:1);
  Alcotest.(check int) "block of" 2 (Layout.block_of_vertex lay 17);
  Alcotest.(check int) "start" 8 (Layout.block_start lay 1)

let test_layout_skeleton_edge_count () =
  let lay = Layout.create ~n:24 ~block:8 in
  let sk = Layout.backward_skeleton lay ~weight:0.5 in
  (* two consecutive pairs, each complete bipartite backward: 2 * 64 *)
  Alcotest.(check int) "edges" 128 (Digraph.m sk);
  Alcotest.(check (float 1e-9)) "weights" 64.0 (Digraph.total_weight sk)

let test_layout_validation () =
  Alcotest.check_raises "one block"
    (Invalid_argument "Layout.create: need at least two blocks") (fun () ->
      ignore (Layout.create ~n:8 ~block:8))

(* qcheck: decode correctness for random instances and random bits. *)
let prop_decode_roundtrip =
  QCheck.Test.make ~name:"§3 encode/decode roundtrip (exact sketch)" ~count:25
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let p = F.make_params ~beta:1 ~inv_eps:4 16 in
      let inst = F.random_instance rng p in
      let sk = Exact_sketch.create inst.F.graph in
      let q = Prng.int rng (F.bits_capacity p) in
      F.failed_at inst q
      || (F.decode_bit p ~query:sk.Sketch.query q).F.decoded = inst.F.s.(q))

let prop_balance_certificate =
  QCheck.Test.make ~name:"§3 instances respect the balance certificate" ~count:10
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let p = F.make_params ~beta:4 ~inv_eps:4 16 in
      let inst = F.random_instance rng p in
      Balance.edgewise_upper_bound inst.F.graph <= F.balance_upper_bound p +. 1e-9)

let suite =
  [
    Alcotest.test_case "params: derived values" `Quick test_params_derived;
    Alcotest.test_case "params: validation" `Quick test_params_validation;
    Alcotest.test_case "address: roundtrip" `Quick test_address_roundtrip;
    Alcotest.test_case "address: ranges" `Quick test_address_ranges;
    Alcotest.test_case "encode: graph shape" `Quick test_encode_graph_shape;
    Alcotest.test_case "encode: weight ranges" `Quick test_encode_weight_range;
    Alcotest.test_case "encode: strongly connected" `Quick test_encode_strongly_connected;
    Alcotest.test_case "encode: balance certificate" `Quick test_encode_balance_certificate;
    Alcotest.test_case "encode: sampled balance" `Quick test_encode_balance_sampled;
    Alcotest.test_case "encode: deterministic" `Quick test_encode_deterministic;
    Alcotest.test_case "encode: input validation" `Quick test_encode_rejects_bad_string;
    Alcotest.test_case "query cut: shape (Figure 1)" `Quick test_query_cut_shape;
    Alcotest.test_case "fixed backward = skeleton crossing" `Quick test_fixed_backward_matches_skeleton;
    Alcotest.test_case "forward crossing = w(A,B)" `Quick test_forward_crossing_is_a_to_b_only;
    Alcotest.test_case "decode: all bits (exact)" `Quick test_decode_all_bits_exact;
    Alcotest.test_case "decode: estimate = z/eps" `Quick test_decode_estimate_magnitude;
    Alcotest.test_case "decode: robust to tiny noise" `Quick test_decode_with_tiny_noise;
    Alcotest.test_case "decode: collapses at huge noise" `Quick test_decode_collapses_at_huge_noise;
    Alcotest.test_case "codec: size ~ |s|" `Quick test_codec_bits_close_to_capacity;
    Alcotest.test_case "codec: exact answers" `Quick test_codec_sketch_answers_exactly;
    Alcotest.test_case "run_trials: exact sketch" `Quick test_run_trials_exact_high_success;
    Alcotest.test_case "naive run_trials: exact sketch decodes every bit" `Quick
      test_naive_exact_decodes_every_bit;
    Alcotest.test_case "encode failures rare" `Quick test_encode_failure_rate_low;
    Alcotest.test_case "index game via codec (Lemma 3.1)" `Quick test_index_game_via_codec;
    Alcotest.test_case "layout: arithmetic" `Quick test_layout_arithmetic;
    Alcotest.test_case "layout: skeleton" `Quick test_layout_skeleton_edge_count;
    Alcotest.test_case "layout: validation" `Quick test_layout_validation;
    QCheck_alcotest.to_alcotest prop_decode_roundtrip;
    QCheck_alcotest.to_alcotest prop_balance_certificate;
  ]
