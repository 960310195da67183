let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty array";
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Stats.quantile: q must lie in [0, 1]";
  let s = Array.copy xs in
  Array.sort compare s;
  if n = 1 then s.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (s.(lo) *. (1.0 -. frac)) +. (s.(hi) *. frac)
  end

let median xs = quantile xs 0.5

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let success_rate bs =
  let n = Array.length bs in
  if n = 0 then 0.0
  else begin
    let c = Array.fold_left (fun a b -> if b then a + 1 else a) 0 bs in
    float_of_int c /. float_of_int n
  end

let binomial_confidence_99 ~trials =
  if trials <= 0 then 1.0 else 2.576 *. sqrt (0.25 /. float_of_int trials)

let log2 x = log x /. log 2.0

let linear_regression pts =
  let n = Array.length pts in
  if n < 2 then invalid_arg "Stats.linear_regression: need >= 2 points";
  let sx = ref 0.0 and sy = ref 0.0 and sxx = ref 0.0 and sxy = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      sxy := !sxy +. (x *. y))
    pts;
  let nf = float_of_int n in
  let denom = (nf *. !sxx) -. (!sx *. !sx) in
  if Float.abs denom < 1e-12 then invalid_arg "Stats.linear_regression: degenerate x";
  let slope = ((nf *. !sxy) -. (!sx *. !sy)) /. denom in
  let intercept = (!sy -. (slope *. !sx)) /. nf in
  (slope, intercept)

let loglog_slope pts =
  let logged =
    Array.map
      (fun (x, y) ->
        if x <= 0.0 || y <= 0.0 then invalid_arg "Stats.loglog_slope: nonpositive";
        (log x, log y))
      pts
  in
  fst (linear_regression logged)

let histogram ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if Array.length xs = 0 then [||]
  else begin
  let lo, hi = min_max xs in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let b = min (bins - 1) (int_of_float ((x -. lo) /. width)) in
      counts.(b) <- counts.(b) + 1)
    xs;
  Array.mapi (fun i c -> (lo +. (float_of_int i *. width), c)) counts
  end

let bucket_bars counts =
  let most = Array.fold_left max 0 counts in
  Array.map
    (fun c ->
      if c < 0 then invalid_arg "Stats.bucket_bars: negative count";
      if most = 0 then ""
      else begin
        (* Nonzero counts always get at least one mark. *)
        let len = c * 24 / most in
        String.make (if c > 0 then max 1 len else 0) '#'
      end)
    counts
