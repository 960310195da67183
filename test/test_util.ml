open Dcs

let check_float = Alcotest.(check (float 1e-9))

(* --- Prng --- *)

let test_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds differ" true (!same < 4)

let test_fork_independence () =
  let g = Prng.create 7 in
  let child = Prng.fork g in
  let xs = Array.init 32 (fun _ -> Prng.bits64 g) in
  let ys = Array.init 32 (fun _ -> Prng.bits64 child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_int_range () =
  let g = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_uniformity () =
  let g = Prng.create 99 in
  let counts = Array.make 8 0 in
  let trials = 16000 in
  for _ = 1 to trials do
    let v = Prng.int g 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      (* expected 2000; 5 sigma ~ 210 *)
      Alcotest.(check bool) "roughly uniform" true (abs (c - 2000) < 300))
    counts

let test_float_range () =
  let g = Prng.create 13 in
  for _ = 1 to 1000 do
    let v = Prng.float g 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_bernoulli_bias () =
  let g = Prng.create 21 in
  let hits = ref 0 in
  let trials = 20000 in
  for _ = 1 to trials do
    if Prng.bernoulli g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "bernoulli(0.3)" true (Float.abs (rate -. 0.3) < 0.02)

let test_bernoulli_extremes () =
  let g = Prng.create 2 in
  Alcotest.(check bool) "p=0" false (Prng.bernoulli g 0.0);
  Alcotest.(check bool) "p=1" true (Prng.bernoulli g 1.0)

let test_binomial_extremes () =
  let g = Prng.create 3 in
  Alcotest.(check int) "p=0" 0 (Prng.binomial g ~n:9 ~p:0.0);
  Alcotest.(check int) "p=1" 9 (Prng.binomial g ~n:9 ~p:1.0);
  Alcotest.(check int) "n=0" 0 (Prng.binomial g ~n:0 ~p:0.5);
  Alcotest.check_raises "n<0"
    (Invalid_argument "Prng.binomial: n must be nonnegative") (fun () ->
      ignore (Prng.binomial g ~n:(-1) ~p:0.5))

let test_binomial_expectation () =
  let g = Prng.create 23 in
  let n = 20 and p = 0.35 and trials = 20000 in
  let acc = ref 0 in
  for _ = 1 to trials do
    acc := !acc + Prng.binomial g ~n ~p
  done;
  let mean = float_of_int !acc /. float_of_int trials in
  let expected = float_of_int n *. p in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near np=%g" mean expected)
    true
    (Float.abs (mean -. expected) /. expected < 0.02)

let test_binomial_split_deterministic () =
  (* Per-index split streams replay the same draws: the contract the
     per-edge resamplers rely on for scheduling independence. *)
  let master = Prng.create 41 in
  let draw () =
    List.init 50 (fun i -> Prng.binomial (Prng.split master i) ~n:10 ~p:0.4)
  in
  Alcotest.(check bool) "split streams replay" true (draw () = draw ())

(* Golden pin of 4096 indexed splits of one unadvanced parent, folded
   through their fingerprints. 81 of these gammas take [mix_gamma]'s
   low-transition XOR branch, which a handful of streams may never hit. *)
let test_split_digest_pinned () =
  let m = Prng.create 424242 in
  let h = ref 0L in
  for i = 0 to 4095 do
    h := Prng.mix64 (Int64.logxor !h (Prng.fingerprint (Prng.split m i)))
  done;
  Alcotest.(check int64) "split digest" (-8649093878469504351L) !h

let test_sign () =
  let g = Prng.create 77 in
  let pos = ref 0 in
  for _ = 1 to 1000 do
    let s = Prng.sign g in
    Alcotest.(check bool) "sign is ±1" true (s = 1 || s = -1);
    if s = 1 then incr pos
  done;
  Alcotest.(check bool) "signs balanced" true (abs (!pos - 500) < 80)

let test_gaussian_moments () =
  let g = Prng.create 31 in
  let xs = Array.init 20000 (fun _ -> Prng.gaussian g) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs (Stats.mean xs) < 0.05);
  Alcotest.(check bool) "var ~ 1" true (Float.abs (Stats.variance xs -. 1.0) < 0.1)

let test_shuffle_permutes () =
  let g = Prng.create 4 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_sample_without_replacement () =
  let g = Prng.create 8 in
  for _ = 1 to 50 do
    let s = Prng.sample_without_replacement g ~k:10 ~n:30 in
    Alcotest.(check int) "size" 10 (Array.length s);
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun v ->
        Alcotest.(check bool) "range" true (v >= 0 && v < 30);
        Alcotest.(check bool) "distinct" false (Hashtbl.mem tbl v);
        Hashtbl.replace tbl v ())
      s
  done

let test_sample_full () =
  let g = Prng.create 9 in
  let s = Prng.sample_without_replacement g ~k:12 ~n:12 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "all of [0,12)" (Array.init 12 (fun i -> i)) sorted

let test_permutation_uniform_position () =
  let g = Prng.create 17 in
  (* P(perm.(0) = 0) should be ~ 1/6 for n = 6. *)
  let hits = ref 0 in
  let trials = 12000 in
  for _ = 1 to trials do
    let p = Prng.permutation g 6 in
    if p.(0) = 0 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "P ~ 1/6" true (Float.abs (rate -. (1.0 /. 6.0)) < 0.02)

(* --- Stats --- *)

let test_mean_variance () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "variance" (5.0 /. 3.0) (Stats.variance xs);
  check_float "empty mean" 0.0 (Stats.mean [||]);
  check_float "singleton variance" 0.0 (Stats.variance [| 5.0 |])

let test_quantiles () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "median" 2.5 (Stats.median xs);
  check_float "q0" 1.0 (Stats.quantile xs 0.0);
  check_float "q1" 4.0 (Stats.quantile xs 1.0)

let test_quantile_edges () =
  (* every quantile of a singleton is the value itself *)
  check_float "singleton q0.37" 5.0 (Stats.quantile [| 5.0 |] 0.37);
  let raises q =
    try
      ignore (Stats.quantile [| 1.0; 2.0 |] q);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "q < 0 raises" true (raises (-0.01));
  Alcotest.(check bool) "q > 1 raises" true (raises 1.01);
  Alcotest.(check bool) "nan raises" true (raises Float.nan)

let test_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 7.0 |] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi

let test_success_rate () =
  check_float "3/4" 0.75 (Stats.success_rate [| true; true; true; false |]);
  check_float "empty" 0.0 (Stats.success_rate [||])

let test_linear_regression () =
  let slope, intercept =
    Stats.linear_regression [| (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) |]
  in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept

let test_loglog_slope () =
  (* y = 5 x^3 *)
  let pts = Array.init 5 (fun i ->
      let x = float_of_int (i + 1) in
      (x, 5.0 *. (x ** 3.0)))
  in
  let s = Stats.loglog_slope pts in
  Alcotest.(check bool) "slope ~ 3" true (Float.abs (s -. 3.0) < 1e-6)

let test_histogram () =
  let h = Stats.histogram ~bins:2 [| 0.0; 0.1; 0.9; 1.0 |] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  Alcotest.(check int) "left count" 2 (snd h.(0));
  Alcotest.(check int) "right count" 2 (snd h.(1))

let test_histogram_edges () =
  Alcotest.(check int) "empty input -> no bins" 0
    (Array.length (Stats.histogram ~bins:4 [||]));
  Alcotest.(check bool) "bins <= 0 raises" true
    (try
       ignore (Stats.histogram ~bins:0 [| 1.0 |]);
       false
     with Invalid_argument _ -> true);
  (* all-equal samples land in a single degenerate bin *)
  let h = Stats.histogram ~bins:3 [| 2.0; 2.0; 2.0 |] in
  Alcotest.(check int) "total count preserved" 3
    (Array.fold_left (fun acc (_, c) -> acc + c) 0 h)

let test_bucket_bars () =
  let bars = Stats.bucket_bars [| 0; 50; 100; 1 |] in
  Alcotest.(check string) "zero count -> empty bar" "" bars.(0);
  Alcotest.(check string) "half" (String.make 12 '#') bars.(1);
  Alcotest.(check string) "max fills the width" (String.make 24 '#') bars.(2);
  Alcotest.(check string) "tiny count still visible" "#" bars.(3);
  Alcotest.(check (array string)) "all-zero counts" [| ""; "" |]
    (Stats.bucket_bars [| 0; 0 |])

(* --- Bits --- *)

let test_bits_counter () =
  let c = Bits.create () in
  Bits.add c 10;
  Bits.write_bool c true;
  Bits.write_float c 3.14;
  Alcotest.(check int) "total" 75 (Bits.total c);
  Alcotest.(check int) "bytes" 10 (Bits.total_bytes c)

let test_bits_for_range () =
  Alcotest.(check int) "1 value" 0 (Bits.bits_for_range 1);
  Alcotest.(check int) "2 values" 1 (Bits.bits_for_range 2);
  Alcotest.(check int) "3 values" 2 (Bits.bits_for_range 3);
  Alcotest.(check int) "256 values" 8 (Bits.bits_for_range 256);
  Alcotest.(check int) "257 values" 9 (Bits.bits_for_range 257)

let test_gamma_size () =
  Alcotest.(check int) "gamma 1" 1 (Bits.gamma_size 1);
  Alcotest.(check int) "gamma 2" 3 (Bits.gamma_size 2);
  Alcotest.(check int) "gamma 4" 5 (Bits.gamma_size 4);
  Alcotest.(check int) "gamma 7" 5 (Bits.gamma_size 7)

let test_write_fixed_validates () =
  let c = Bits.create () in
  Bits.write_fixed c ~width:4 15;
  Alcotest.check_raises "too large" (Invalid_argument "Bits.write_fixed: value out of range")
    (fun () -> Bits.write_fixed c ~width:4 16)

(* qcheck: the size helpers agree exactly with what the counter records. *)
let prop_gamma_write_matches_size =
  QCheck.Test.make ~name:"write_gamma records gamma_size bits" ~count:100
    QCheck.(int_range 1 1000000)
    (fun v ->
      let c = Bits.create () in
      Bits.write_gamma c v;
      let direct = Bits.total c in
      let c' = Bits.create () in
      Bits.write_nonneg c' (v - 1);
      direct = Bits.gamma_size v && Bits.total c' = Bits.gamma_size v)

(* qcheck: bits_for_range n is the exact ceil(log2 n): n values fit at that
   width (write_fixed accepts n-1) and, for widths > 0, half the range does
   not suffice. *)
let prop_bits_for_range_tight =
  QCheck.Test.make ~name:"bits_for_range is tight" ~count:100
    QCheck.(int_range 1 2000000)
    (fun n ->
      let w = Bits.bits_for_range n in
      let c = Bits.create () in
      Bits.write_fixed c ~width:w (n - 1);
      Bits.total c = w && (1 lsl w) >= n && (w = 0 || (1 lsl (w - 1)) < n))

(* qcheck: counter totals are additive over any sequence of writes. *)
let prop_bits_counter_additive =
  QCheck.Test.make ~name:"bits counter is additive" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 20) (int_range 1 500))
    (fun vs ->
      let c = Bits.create () in
      List.iter (fun v -> Bits.write_gamma c v) vs;
      Bits.write_float c 1.5;
      Bits.total c
      = List.fold_left (fun acc v -> acc + Bits.gamma_size v) 64 vs
      && Bits.total_bytes c = (Bits.total c + 7) / 8)

(* qcheck: every cell written into a Table comes back verbatim in render,
   and the integer formatter round-trips through the rendered text. *)
let prop_table_cells_render_roundtrip =
  QCheck.Test.make ~name:"table cells round-trip through render" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 6) small_nat)
    (fun row ->
      let cells = List.map Table.fint row in
      let t = Table.create ~title:"t" ~columns:(List.map (fun _ -> "c") cells) in
      Table.add_row t cells;
      let rendered = Table.render t in
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        m = 0 || go 0
      in
      List.for_all2
        (fun cell v -> contains rendered cell && int_of_string cell = v)
        cells row)

(* --- Message --- *)

let test_message_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) "roundtrip" s (Message.of_signs (Message.to_signs s)))
    [ ""; "a"; "PODS24"; "hello world"; "\x00\xff\x80" ]

let test_message_signs_shape () =
  let bits = Message.to_signs "A" (* 0x41 = 01000001 *) in
  Alcotest.(check (array int)) "bit pattern"
    [| -1; 1; -1; -1; -1; -1; -1; 1 |] bits

let test_message_bad_length () =
  Alcotest.check_raises "length"
    (Invalid_argument "Message.of_signs: length not a multiple of 8") (fun () ->
      ignore (Message.of_signs [| 1; 1; 1 |]))

(* --- Table --- *)

let test_table_renders () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_rule t;
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 4 = "demo");
  Alcotest.(check bool) "has row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "333 | 2 " || String.length l > 0))

let test_table_row_mismatch () =
  let t = Table.create ~title:"x" ~columns:[ "a" ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_formats () =
  Alcotest.(check string) "pct" "95.3%" (Table.fpct 0.953);
  Alcotest.(check string) "int" "42" (Table.fint 42);
  Alcotest.(check string) "float" "1.500" (Table.ffloat 1.5);
  Alcotest.(check string) "bool" "yes" (Table.fbool true)

(* --- Token_bucket --- *)

let test_bucket_burst_then_starve () =
  (* Full bucket: the burst drains capacity, then refill gates admission. *)
  let b = Token_bucket.create ~capacity:4 ~rate_num:1 ~rate_den:2 in
  for i = 1 to 4 do
    Alcotest.(check bool) (Printf.sprintf "burst take %d" i) true
      (Token_bucket.try_take b ~now:0)
  done;
  Alcotest.(check bool) "empty at tick 0" false (Token_bucket.try_take b ~now:0);
  (* 1/2 token per tick: tick 1 has half a token, tick 2 a whole one. *)
  Alcotest.(check bool) "half token refused" false (Token_bucket.try_take b ~now:1);
  Alcotest.(check bool) "whole token admitted" true (Token_bucket.try_take b ~now:2);
  Alcotest.(check bool) "and spent" false (Token_bucket.try_take b ~now:2)

let test_bucket_clamps_at_capacity () =
  let b = Token_bucket.create ~capacity:3 ~rate_num:1 ~rate_den:1 in
  (* Drained at tick 0, a long idle stretch then cannot bank more than
     [capacity] tokens. *)
  for i = 1 to 3 do
    Alcotest.(check bool) (Printf.sprintf "drain %d" i) true
      (Token_bucket.try_take b ~now:0)
  done;
  Alcotest.(check int) "drained" 0 (Token_bucket.tokens b ~now:0);
  Alcotest.(check int) "clamped" 3 (Token_bucket.tokens b ~now:1_000);
  Alcotest.(check int) "capacity" 3 (Token_bucket.capacity b);
  for i = 1 to 3 do
    Alcotest.(check bool) (Printf.sprintf "take %d" i) true
      (Token_bucket.try_take b ~now:1_000)
  done;
  Alcotest.(check bool) "no fourth" false (Token_bucket.try_take b ~now:1_000)

let test_bucket_validates () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Token_bucket.create: capacity must be >= 1") (fun () ->
      ignore (Token_bucket.create ~capacity:0 ~rate_num:1 ~rate_den:1));
  let b = Token_bucket.create ~capacity:1 ~rate_num:1 ~rate_den:1 in
  ignore (Token_bucket.try_take b ~now:10);
  Alcotest.check_raises "monotone clock"
    (Invalid_argument "Token_bucket: the virtual clock must not move backwards")
    (fun () -> ignore (Token_bucket.try_take b ~now:9))

(* Admissions over any nondecreasing arrival sequence never exceed
   capacity + elapsed * rate, and an admission implies a token existed. *)
let prop_bucket_never_overspends =
  QCheck.Test.make ~name:"token bucket never admits beyond its refill"
    ~count:200
    QCheck.(
      pair
        (pair (int_range 1 8) (pair (int_range 0 3) (int_range 1 4)))
        (small_list (int_range 0 5)))
    (fun ((capacity, (rate_num, rate_den)), gaps) ->
      let b = Token_bucket.create ~capacity ~rate_num ~rate_den in
      let now = ref 0 and admitted = ref 0 in
      List.iter
        (fun gap ->
          now := !now + gap;
          if Token_bucket.try_take b ~now:!now then incr admitted)
        gaps;
      (* capacity head start plus what the refill could have produced. *)
      !admitted <= capacity + ((!now * rate_num) / rate_den))

let suite =
  [
    Alcotest.test_case "prng: determinism" `Quick test_determinism;
    Alcotest.test_case "prng: seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "prng: fork independence" `Quick test_fork_independence;
    Alcotest.test_case "prng: int range" `Quick test_int_range;
    Alcotest.test_case "prng: int uniformity" `Quick test_int_uniformity;
    Alcotest.test_case "prng: float range" `Quick test_float_range;
    Alcotest.test_case "prng: bernoulli bias" `Quick test_bernoulli_bias;
    Alcotest.test_case "prng: bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "prng: binomial extremes" `Quick test_binomial_extremes;
    Alcotest.test_case "prng: binomial expectation" `Quick test_binomial_expectation;
    Alcotest.test_case "prng: binomial split determinism" `Quick test_binomial_split_deterministic;
    Alcotest.test_case "prng: split digest pinned" `Quick test_split_digest_pinned;
    Alcotest.test_case "prng: sign" `Quick test_sign;
    Alcotest.test_case "prng: gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "prng: shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "prng: sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "prng: sample full range" `Quick test_sample_full;
    Alcotest.test_case "prng: permutation uniform" `Quick test_permutation_uniform_position;
    Alcotest.test_case "stats: mean/variance" `Quick test_mean_variance;
    Alcotest.test_case "stats: quantiles" `Quick test_quantiles;
    Alcotest.test_case "stats: quantile edge cases" `Quick test_quantile_edges;
    Alcotest.test_case "stats: min/max" `Quick test_min_max;
    Alcotest.test_case "stats: success rate" `Quick test_success_rate;
    Alcotest.test_case "stats: linear regression" `Quick test_linear_regression;
    Alcotest.test_case "stats: loglog slope" `Quick test_loglog_slope;
    Alcotest.test_case "stats: histogram" `Quick test_histogram;
    Alcotest.test_case "stats: histogram edge cases" `Quick test_histogram_edges;
    Alcotest.test_case "stats: bucket bars" `Quick test_bucket_bars;
    Alcotest.test_case "bits: counter" `Quick test_bits_counter;
    Alcotest.test_case "bits: bits_for_range" `Quick test_bits_for_range;
    Alcotest.test_case "bits: gamma size" `Quick test_gamma_size;
    Alcotest.test_case "bits: write_fixed validates" `Quick test_write_fixed_validates;
    Alcotest.test_case "message: roundtrip" `Quick test_message_roundtrip;
    Alcotest.test_case "message: bit pattern" `Quick test_message_signs_shape;
    Alcotest.test_case "message: bad length" `Quick test_message_bad_length;
    Alcotest.test_case "table: renders" `Quick test_table_renders;
    Alcotest.test_case "table: row mismatch" `Quick test_table_row_mismatch;
    Alcotest.test_case "table: cell formats" `Quick test_table_formats;
    Alcotest.test_case "bucket: burst then starve" `Quick test_bucket_burst_then_starve;
    Alcotest.test_case "bucket: clamps at capacity" `Quick test_bucket_clamps_at_capacity;
    Alcotest.test_case "bucket: validates" `Quick test_bucket_validates;
    QCheck_alcotest.to_alcotest prop_bucket_never_overspends;
    QCheck_alcotest.to_alcotest prop_gamma_write_matches_size;
    QCheck_alcotest.to_alcotest prop_bits_for_range_tight;
    QCheck_alcotest.to_alcotest prop_bits_counter_additive;
    QCheck_alcotest.to_alcotest prop_table_cells_render_roundtrip;
  ]
