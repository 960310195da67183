open Dcs

(* --- Bitstring --- *)

let test_bitstring_basics () =
  let s = Bitstring.zeros 5 in
  Alcotest.(check int) "length" 5 (Bitstring.length s);
  Alcotest.(check int) "weight" 0 (Bitstring.hamming_weight s)

let test_bitstring_random_weight () =
  let rng = Prng.create 1 in
  for _ = 1 to 30 do
    let s = Bitstring.random_weight rng ~n:20 ~weight:7 in
    Alcotest.(check int) "weight" 7 (Bitstring.hamming_weight s)
  done

let test_bitstring_distance_int () =
  let a = [| true; true; false; false |] in
  let b = [| true; false; true; false |] in
  Alcotest.(check int) "distance" 2 (Bitstring.hamming_distance a b);
  Alcotest.(check int) "intersection" 1 (Bitstring.intersection_size a b);
  Alcotest.(check bool) "not disjoint" false (Bitstring.disjoint a b);
  Alcotest.(check bool) "disjoint" true
    (Bitstring.disjoint [| true; false |] [| false; true |])

let test_bitstring_ones_concat () =
  let a = [| false; true; true |] in
  Alcotest.(check (list int)) "ones" [ 1; 2 ] (Bitstring.ones a);
  let c = Bitstring.concat [ a; [| true |] ] in
  Alcotest.(check int) "concat length" 4 (Bitstring.length c);
  Alcotest.(check (list int)) "concat ones" [ 1; 2; 3 ] (Bitstring.ones c)

(* --- Channel --- *)

let test_channel_accounting () =
  let ch = Channel.create () in
  Channel.send ch ~bits:10;
  Channel.send ch ~bits:2;
  Alcotest.(check int) "bits" 12 (Channel.total_bits ch);
  Alcotest.(check int) "rounds" 2 (Channel.rounds ch)

(* --- Index game (Lemma 3.1 harness) --- *)

let test_index_instance_shape () =
  let rng = Prng.create 2 in
  let inst = Index_game.generate rng ~n:50 in
  Alcotest.(check int) "length" 50 (Array.length inst.Index_game.s);
  Alcotest.(check bool) "index range" true
    (inst.Index_game.i >= 0 && inst.Index_game.i < 50);
  Array.iter
    (fun z -> Alcotest.(check bool) "signs" true (z = 1 || z = -1))
    inst.Index_game.s

let test_index_trivial_protocol_wins () =
  let rng = Prng.create 3 in
  let r = Index_game.play rng ~n:64 ~trials:50 Index_game.trivial_protocol in
  Alcotest.(check (float 1e-9)) "always right" 1.0 r.Index_game.success_rate;
  Alcotest.(check (float 1e-9)) "64 bits" 64.0 r.Index_game.mean_message_bits

let test_index_empty_protocol_is_chance () =
  (* A protocol that sends nothing decodes at chance. *)
  let rng = Prng.create 4 in
  let coin = Prng.create 5 in
  let proto =
    { Index_game.encode = (fun _ -> ((), 0)); decode = (fun () _ -> Prng.sign coin) }
  in
  let r = Index_game.play rng ~n:32 ~trials:2000 proto in
  Alcotest.(check bool) "~50%" true
    (Float.abs (r.Index_game.success_rate -. 0.5) < 0.05)

(* --- Gap-Hamming (Lemma 4.1 instances) --- *)

let test_gap_hamming_valid () =
  let rng = Prng.create 6 in
  for _ = 1 to 20 do
    let inst = Gap_hamming.generate rng ~h:10 ~inv_eps_sq:16 ~c:0.5 in
    Alcotest.(check bool) "internally consistent" true (Gap_hamming.check inst)
  done

let test_gap_hamming_planted_distance () =
  let rng = Prng.create 7 in
  for _ = 1 to 30 do
    let inst = Gap_hamming.generate rng ~h:5 ~inv_eps_sq:64 ~c:0.25 in
    let delta =
      Bitstring.hamming_distance inst.Gap_hamming.strings.(inst.Gap_hamming.i)
        inst.Gap_hamming.t
    in
    let half = inst.Gap_hamming.d / 2 in
    if inst.Gap_hamming.high then
      Alcotest.(check bool) "high side" true (delta >= half + inst.Gap_hamming.gap)
    else
      Alcotest.(check bool) "low side" true (delta <= half - inst.Gap_hamming.gap)
  done

let test_gap_hamming_sides_balanced () =
  let rng = Prng.create 8 in
  let highs = ref 0 in
  let trials = 400 in
  for _ = 1 to trials do
    let inst = Gap_hamming.generate rng ~h:2 ~inv_eps_sq:16 ~c:0.5 in
    if inst.Gap_hamming.high then incr highs
  done;
  let rate = float_of_int !highs /. float_of_int trials in
  Alcotest.(check bool) "fair coin" true (Float.abs (rate -. 0.5) < 0.08)

let test_gap_hamming_rejects_bad_d () =
  let rng = Prng.create 9 in
  Alcotest.check_raises "d mod 4"
    (Invalid_argument "Gap_hamming.generate: 1/eps^2 must be a positive multiple of 4")
    (fun () -> ignore (Gap_hamming.generate rng ~h:2 ~inv_eps_sq:6 ~c:0.5))

let test_gap_hamming_total_bits () =
  let rng = Prng.create 10 in
  let inst = Gap_hamming.generate rng ~h:7 ~inv_eps_sq:16 ~c:0.5 in
  Alcotest.(check int) "h*d" 112 (Gap_hamming.total_input_bits inst)

(* --- 2-SUM (Definition 5.2) --- *)

let test_two_sum_promise () =
  let rng = Prng.create 11 in
  for _ = 1 to 20 do
    let inst = Two_sum.generate rng ~t:20 ~len:30 ~alpha:3 ~frac_intersecting:0.25 in
    Alcotest.(check bool) "promise holds" true (Two_sum.check inst)
  done

let test_two_sum_sums () =
  let rng = Prng.create 12 in
  let inst = Two_sum.generate rng ~t:16 ~len:20 ~alpha:2 ~frac_intersecting:0.25 in
  Alcotest.(check int) "disj sum" (16 - inst.Two_sum.intersecting) (Two_sum.disj_sum inst);
  Alcotest.(check int) "int sum" (2 * inst.Two_sum.intersecting) (Two_sum.int_sum inst)

let test_two_sum_minimum_one_intersecting () =
  let rng = Prng.create 13 in
  let inst = Two_sum.generate rng ~t:10 ~len:20 ~alpha:1 ~frac_intersecting:0.0 in
  Alcotest.(check bool) "at least 1/1000 enforced" true (inst.Two_sum.intersecting >= 1)

let test_two_sum_concat () =
  let rng = Prng.create 14 in
  let inst = Two_sum.generate rng ~t:4 ~len:9 ~alpha:2 ~frac_intersecting:0.5 in
  let x, y = Two_sum.concat_pair inst in
  Alcotest.(check int) "length" 36 (Bitstring.length x);
  Alcotest.(check int) "INT(x,y) = int_sum" (Two_sum.int_sum inst)
    (Bitstring.intersection_size x y)

let test_two_sum_amplify () =
  let rng = Prng.create 15 in
  let base = Two_sum.generate rng ~t:8 ~len:10 ~alpha:1 ~frac_intersecting:0.25 in
  let amp = Two_sum.amplify base ~alpha:3 in
  Alcotest.(check int) "alpha" 3 amp.Two_sum.alpha;
  Alcotest.(check int) "length" 30 amp.Two_sum.len;
  Alcotest.(check bool) "still valid" true (Two_sum.check amp);
  Alcotest.(check int) "same disj sum" (Two_sum.disj_sum base) (Two_sum.disj_sum amp)

let test_two_sum_amplify_requires_alpha_one () =
  let rng = Prng.create 16 in
  let inst = Two_sum.generate rng ~t:4 ~len:10 ~alpha:2 ~frac_intersecting:0.5 in
  Alcotest.check_raises "alpha=1 required"
    (Invalid_argument "Two_sum.amplify: input must have alpha = 1") (fun () ->
      ignore (Two_sum.amplify inst ~alpha:2))

(* qcheck: every pair in a generated 2-SUM instance has INT in {0, alpha} *)
let prop_two_sum_int_values =
  QCheck.Test.make ~name:"2-SUM pairs have INT in {0, α}" ~count:50
    QCheck.(pair (int_bound 10000) (int_range 1 4))
    (fun (seed, alpha) ->
      let rng = Prng.create seed in
      let inst = Two_sum.generate rng ~t:12 ~len:(8 * alpha) ~alpha ~frac_intersecting:0.3 in
      Array.for_all2
        (fun x y ->
          let v = Bitstring.intersection_size x y in
          v = 0 || v = alpha)
        inst.Two_sum.xs inst.Two_sum.ys)

let prop_amplify_scales_int_sum =
  QCheck.Test.make ~name:"amplification scales INT sums by α" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 2 5))
    (fun (seed, alpha) ->
      let rng = Prng.create seed in
      let base = Two_sum.generate rng ~t:10 ~len:12 ~alpha:1 ~frac_intersecting:0.3 in
      let amp = Two_sum.amplify base ~alpha in
      Two_sum.int_sum amp = alpha * Two_sum.int_sum base
      && Two_sum.disj_sum amp = Two_sum.disj_sum base)

let prop_gap_hamming_weights =
  QCheck.Test.make ~name:"gap-hamming strings have weight d/2" ~count:40
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = Gap_hamming.generate rng ~h:6 ~inv_eps_sq:16 ~c:0.5 in
      Array.for_all (fun s -> Bitstring.hamming_weight s = 8) inst.Gap_hamming.strings
      && Bitstring.hamming_weight inst.Gap_hamming.t = 8)

let suite =
  [
    Alcotest.test_case "bitstring: basics" `Quick test_bitstring_basics;
    Alcotest.test_case "bitstring: random weight" `Quick test_bitstring_random_weight;
    Alcotest.test_case "bitstring: distance/INT" `Quick test_bitstring_distance_int;
    Alcotest.test_case "bitstring: ones/concat" `Quick test_bitstring_ones_concat;
    Alcotest.test_case "channel: accounting" `Quick test_channel_accounting;
    Alcotest.test_case "index: instance shape" `Quick test_index_instance_shape;
    Alcotest.test_case "index: trivial protocol" `Quick test_index_trivial_protocol_wins;
    Alcotest.test_case "index: empty protocol = chance" `Quick test_index_empty_protocol_is_chance;
    Alcotest.test_case "gap-hamming: valid" `Quick test_gap_hamming_valid;
    Alcotest.test_case "gap-hamming: planted distance" `Quick test_gap_hamming_planted_distance;
    Alcotest.test_case "gap-hamming: sides balanced" `Quick test_gap_hamming_sides_balanced;
    Alcotest.test_case "gap-hamming: rejects bad d" `Quick test_gap_hamming_rejects_bad_d;
    Alcotest.test_case "gap-hamming: total bits" `Quick test_gap_hamming_total_bits;
    Alcotest.test_case "2sum: promise" `Quick test_two_sum_promise;
    Alcotest.test_case "2sum: sums" `Quick test_two_sum_sums;
    Alcotest.test_case "2sum: min intersecting" `Quick test_two_sum_minimum_one_intersecting;
    Alcotest.test_case "2sum: concat" `Quick test_two_sum_concat;
    Alcotest.test_case "2sum: amplify (Thm 5.4)" `Quick test_two_sum_amplify;
    Alcotest.test_case "2sum: amplify validation" `Quick test_two_sum_amplify_requires_alpha_one;
    QCheck_alcotest.to_alcotest prop_two_sum_int_values;
    QCheck_alcotest.to_alcotest prop_amplify_scales_int_sum;
    QCheck_alcotest.to_alcotest prop_gap_hamming_weights;
  ]
