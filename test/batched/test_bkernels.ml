(* Randomized equivalence battery for the batched CSR kernels: [cut_many]
   must equal a per-cut [cut_weight] loop, [flip_sweep] a per-flip
   [cut_delta] loop and [cut_value] a [cut_weight] of the cut's membership,
   bit for bit — on random digraphs, random batches (empty, singleton,
   duplicated) and reused output buffers. All comparisons are exact float
   equality: the kernels are specified to perform the same operations in
   the same order, not to be merely close. On integer weights every
   summation order gives the same bits, so the [flip_sweep] and
   [cut_value] properties also draw fractional and heavy-tailed weights,
   where a reordered sum moves the last bits. *)

open Dcs
module M = Obs.Metrics

(* Weight laws: small integers, uniform on [0.1, 5.0), and log-uniform
   over six decades, [1e-3, 1e3). *)
type law = Int | Frac | Heavy

let draw_weight rng = function
  | Int -> float_of_int (1 + Prng.int rng 8)
  | Frac -> 0.1 +. Prng.float rng 4.9
  | Heavy -> 10.0 ** (Prng.float rng 6.0 -. 3.0)

let random_digraph rng ~law ~n ~p =
  let g = Digraph.create n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Prng.float rng 1.0 < p then
        Digraph.add_edge g u v (draw_weight rng law)
    done
  done;
  g

let random_ugraph rng ~law ~n ~p =
  let g = Ugraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.float rng 1.0 < p then Ugraph.add_edge g u v (draw_weight rng law)
    done
  done;
  g

(* [layers] blocks of [width] consecutive vertices with arcs only between
   distinct blocks — the shape of the Section 4 construction, where no arc
   joins two vertices of one block — plus up to [internal] arcs inside
   block [block]. *)
let layered_digraph rng ~law ~layers ~width ~block ~internal =
  let n = layers * width in
  let g = Digraph.create n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u / width <> v / width && Prng.float rng 1.0 < 0.5 then
        Digraph.add_edge g u v (draw_weight rng law)
    done
  done;
  for _ = 1 to internal do
    let u = (block * width) + Prng.int rng width in
    let v = (block * width) + Prng.int rng width in
    if u <> v then Digraph.set_edge g u v (draw_weight rng law)
  done;
  g

let random_csr rng ~n =
  Csr.of_digraph (random_digraph rng ~law:Int ~n ~p:0.35)

let random_side rng n = Array.init n (fun _ -> Prng.bool rng)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* --- cut_many --- *)

let prop_cut_many_matches_cut_weight =
  QCheck.Test.make ~name:"cut_many = per-cut cut_weight"
    ~count:80
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 14 in
      let c = random_csr rng ~n in
      let batch = Prng.int rng 8 in
      let sides =
        Array.init batch (fun _ -> Array.init n (fun _ -> Prng.bool rng))
      in
      (* duplicate cuts in one batch must accumulate independently *)
      if batch >= 2 then sides.(batch - 1) <- Array.copy sides.(0);
      let out = Csr.cut_many c sides in
      Array.length out = batch
      && Array.for_all (fun x -> x)
           (Array.init batch (fun m ->
                out.(m) = Csr.cut_weight c (fun v -> sides.(m).(v)))))

let test_cut_many_edge_cases () =
  let g = Digraph.of_edges 3 [ (0, 1, 2.0); (1, 2, 4.0); (2, 0, 8.0) ] in
  let c = Csr.of_digraph g in
  Alcotest.(check (array (float 0.0))) "empty batch" [||] (Csr.cut_many c [||]);
  let singleton v = Array.init 3 (fun u -> u = v) in
  let sides =
    [| Array.make 3 false; Array.make 3 true; singleton 0; singleton 1 |]
  in
  Alcotest.(check (array (float 0.0)))
    "empty / full / singleton sides"
    [| 0.0; 0.0; 2.0; 4.0 |]
    (Csr.cut_many c sides)

let test_cut_many_into () =
  let g = Digraph.of_edges 3 [ (0, 1, 2.0); (1, 2, 4.0) ] in
  let c = Csr.of_digraph g in
  let into = Array.make 5 (-1.0) in
  let sides = [| [| true; false; false |]; [| true; true; false |] |] in
  let out = Csr.cut_many ~into c sides in
  Alcotest.(check bool) "returns the caller's buffer" true (out == into);
  Alcotest.(check (float 0.0)) "slot 0" 2.0 into.(0);
  Alcotest.(check (float 0.0)) "slot 1" 4.0 into.(1);
  Alcotest.(check (float 0.0)) "slots past the batch untouched" (-1.0) into.(2)

let test_cut_many_validation () =
  let g = Digraph.of_edges 3 [ (0, 1, 1.0) ] in
  let c = Csr.of_digraph g in
  Alcotest.check_raises "side length"
    (Invalid_argument "Csr.cut_many: side length mismatch") (fun () ->
      ignore (Csr.cut_many c [| Array.make 2 false |]));
  Alcotest.check_raises "into too short"
    (Invalid_argument "Csr.cut_many: into too short") (fun () ->
      ignore
        (Csr.cut_many ~into:(Array.make 1 0.0) c
           [| Array.make 3 false; Array.make 3 false |]))

let test_cut_many_counters () =
  let g = Digraph.of_edges 3 [ (0, 1, 1.0) ] in
  let c = Csr.of_digraph g in
  let full = M.counter "csr.cut_full" in
  let calls = M.counter "csr.cut_many_calls" in
  let f0 = M.counter_value full and c0 = M.counter_value calls in
  ignore (Csr.cut_many c (Array.init 5 (fun _ -> Array.make 3 false)));
  Alcotest.(check int) "one cut_full per cut" 5 (M.counter_value full - f0);
  Alcotest.(check int) "one cut_many call" 1 (M.counter_value calls - c0)

(* --- flip_sweep --- *)

(* [flip_sweep] against the one-flip-at-a-time loop from [side0]: the
   final value, every running value and the mutated side. *)
let flip_sweep_agrees c ~side0 ~flips =
  let len = Array.length flips in
  let init = Csr.cut_weight c (fun v -> side0.(v)) in
  let side_a = Array.copy side0 in
  let cur = ref init in
  let expect =
    Array.map
      (fun x ->
        cur := !cur +. Csr.cut_delta c side_a x;
        side_a.(x) <- not side_a.(x);
        !cur)
      flips
  in
  let side_b = Array.copy side0 in
  let vals = Array.make (max 1 len) nan in
  let final = Csr.flip_sweep c ~side:side_b ~init ~flips ~vals in
  same_bits final !cur
  && Array.for_all2 same_bits (Array.sub vals 0 len) expect
  && side_b = side_a

let prop_flip_sweep_matches_cut_delta =
  QCheck.Test.make ~name:"flip_sweep = per-flip cut_delta loop" ~count:80
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      (* Flips over every vertex of a random digraph; duplicates are the
         norm: each occurrence toggles again. *)
      let any_vertex law =
        let n = 2 + Prng.int rng 14 in
        let c = Csr.of_digraph (random_digraph rng ~law ~n ~p:0.35) in
        let flips = Array.init (Prng.int rng 41) (fun _ -> Prng.int rng n) in
        flip_sweep_agrees c ~side0:(random_side rng n) ~flips
      in
      (* Flips inside one block of a layered digraph: with no internal arc
         no flipped vertex's arc reaches the batch, and a few internal arcs
         mix such vertices with ones whose neighbours flip too. *)
      let one_block law ~internal =
        let layers = 2 + Prng.int rng 3 and width = 2 + Prng.int rng 6 in
        let block = Prng.int rng layers in
        let c =
          Csr.of_digraph
            (layered_digraph rng ~law ~layers ~width ~block ~internal)
        in
        let flips =
          Array.init (Prng.int rng 41) (fun _ ->
              (block * width) + Prng.int rng width)
        in
        flip_sweep_agrees c ~side0:(random_side rng (layers * width)) ~flips
      in
      List.for_all any_vertex [ Int; Frac; Heavy ]
      && List.for_all
           (fun (law, internal) -> one_block law ~internal)
           [ (Int, 0); (Frac, 0); (Heavy, 0); (Frac, 3); (Heavy, 3) ])

let prop_flip_sweep_window =
  QCheck.Test.make ~name:"flip_sweep ?len applies exactly the window"
    ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 10 in
      let c = random_csr rng ~n in
      let total = 1 + Prng.int rng 30 in
      let flips = Array.init total (fun _ -> Prng.int rng n) in
      let len = Prng.int rng (total + 1) in
      let side0 = Array.init n (fun _ -> Prng.bool rng) in
      let init = Csr.cut_weight c (fun v -> side0.(v)) in
      let side_a = Array.copy side0 in
      let cur = ref init in
      for j = 0 to len - 1 do
        cur := !cur +. Csr.cut_delta c side_a flips.(j);
        side_a.(flips.(j)) <- not side_a.(flips.(j))
      done;
      let side_b = Array.copy side0 in
      let vals = Array.make (max 1 len) nan in
      let final = Csr.flip_sweep ~len c ~side:side_b ~init ~flips ~vals in
      final = !cur && side_b = side_a)

let test_flip_sweep_validation () =
  let g = Digraph.of_edges 3 [ (0, 1, 1.0) ] in
  let c = Csr.of_digraph g in
  let side = Array.make 3 false in
  Alcotest.check_raises "bad len"
    (Invalid_argument "Csr.flip_sweep: bad len") (fun () ->
      ignore
        (Csr.flip_sweep ~len:3 c ~side ~init:0.0 ~flips:[| 0; 1 |]
           ~vals:(Array.make 3 0.0)));
  Alcotest.check_raises "vals too short"
    (Invalid_argument "Csr.flip_sweep: vals too short") (fun () ->
      ignore
        (Csr.flip_sweep c ~side ~init:0.0 ~flips:[| 0; 1 |]
           ~vals:(Array.make 1 0.0)));
  Alcotest.check_raises "vertex out of range"
    (Invalid_argument "Csr.flip_sweep: vertex out of range") (fun () ->
      ignore
        (Csr.flip_sweep c ~side ~init:0.0 ~flips:[| 3 |]
           ~vals:(Array.make 1 0.0)));
  Alcotest.check_raises "side length"
    (Invalid_argument "Csr.flip_sweep: side length mismatch") (fun () ->
      ignore
        (Csr.flip_sweep c ~side:(Array.make 2 false) ~init:0.0 ~flips:[| 0 |]
           ~vals:(Array.make 1 0.0)))

let test_flip_sweep_counters () =
  let g = Digraph.of_edges 3 [ (0, 1, 1.0) ] in
  let c = Csr.of_digraph g in
  let delta = M.counter "csr.cut_delta" in
  let calls = M.counter "csr.flip_sweep_calls" in
  let d0 = M.counter_value delta and c0 = M.counter_value calls in
  ignore
    (Csr.flip_sweep c ~side:(Array.make 3 false) ~init:0.0
       ~flips:[| 0; 1; 0 |] ~vals:(Array.make 3 0.0));
  Alcotest.(check int) "one cut_delta per flip" 3 (M.counter_value delta - d0);
  Alcotest.(check int) "one flip_sweep call" 1 (M.counter_value calls - c0)

(* --- cut_value --- *)

let prop_cut_value_matches_cut_weight =
  QCheck.Test.make ~name:"cut_value = cut_weight of Cut.mem" ~count:80
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 14 in
      let s = Cut.of_array (random_side rng n) in
      let agrees c =
        same_bits (Csr.cut_value c s) (Csr.cut_weight c (Cut.mem s))
      in
      List.for_all
        (fun law ->
          agrees (Csr.of_digraph (random_digraph rng ~law ~n ~p:0.35))
          && agrees (Csr.of_ugraph (random_ugraph rng ~law ~n ~p:0.35)))
        [ Frac; Heavy ])

let test_cut_value_validation () =
  let c = Csr.of_digraph (Digraph.of_edges 3 [ (0, 1, 1.0) ]) in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Csr.cut_value: size mismatch") (fun () ->
      ignore (Csr.cut_value c (Cut.singleton ~n:2 0)))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cut_many_matches_cut_weight;
      prop_flip_sweep_matches_cut_delta;
      prop_flip_sweep_window;
    ]
  @ [
      Alcotest.test_case "cut_many: edge cases" `Quick test_cut_many_edge_cases;
      Alcotest.test_case "cut_many: into reuse" `Quick test_cut_many_into;
      Alcotest.test_case "cut_many: validation" `Quick test_cut_many_validation;
      Alcotest.test_case "cut_many: counters" `Quick test_cut_many_counters;
      Alcotest.test_case "flip_sweep: validation" `Quick
        test_flip_sweep_validation;
      Alcotest.test_case "flip_sweep: counters" `Quick test_flip_sweep_counters;
      QCheck_alcotest.to_alcotest prop_cut_value_matches_cut_weight;
      Alcotest.test_case "cut_value: validation" `Quick
        test_cut_value_validation;
    ]
