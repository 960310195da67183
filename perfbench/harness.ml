(* The measurement harness: layer spans, the timing loop, and the one-line
   JSON result.

   A workload builds a [session] from the seed. The harness warms the
   session up, then runs operations back to back for the requested number
   of seconds, timing each one and checking its output outside the timed
   interval. Set-up is repeated at even intervals through the run.

   The hosts this runs on share cores with other tenants, and their speed
   shifts by up to 1.5x for tens of seconds at a time — long enough to
   cover a whole run. Two things keep the figures comparable across
   runs: every timing is divided by the host's current slowdown, measured
   with a fixed kernel before each block of operations and each set-up;
   and the reported operation times and throughput come from the run's
   quietest tenth of blocks. The whole-run median and 90th percentile go
   to standard error. *)

let now = Unix.gettimeofday

(* --- layer spans --- *)

(* The library layers the workloads call into. In a traced run every call
   is bracketed by a span; a layer's self time is its spans' durations
   minus the spans nested inside them. Spans are opened only on the main
   domain, so plain refs suffice. *)
type layer =
  | Csr  (** freezing graphs and evaluating cuts on the frozen view *)
  | Decode  (** the Forall_lb / Foreach_lb decoders *)
  | Strength  (** Nagamochi–Ibaraki decomposition *)
  | Connectivity  (** batched local edge-connectivity estimation *)
  | Partial_mincut  (** sparsify, solve and certify *)
  | Serve  (** the dcutd request path *)
  | Journal  (** WAL append plus state update *)
  | Recover  (** snapshot restore plus WAL scan and replay *)

let layers =
  [ Csr; Decode; Strength; Connectivity; Partial_mincut; Serve; Journal; Recover ]

let layer_name = function
  | Csr -> "csr"
  | Decode -> "decode"
  | Strength -> "strength"
  | Connectivity -> "connectivity"
  | Partial_mincut -> "partial_mincut"
  | Serve -> "serve"
  | Journal -> "journal"
  | Recover -> "recover"

let tracing = ref false
let self_s : (layer, float) Hashtbl.t = Hashtbl.create 8

(* Time spent inside spans nested in the innermost open span. *)
let nested = ref 0.0

(* The host's latest measured slowdown (see [slowdown] below); self times
   are divided by it like every other time. *)
let host_slowdown = ref 1.0

let span layer f =
  if not !tracing then f ()
  else begin
    let outer = !nested in
    nested := 0.0;
    let t0 = now () in
    let close () =
      let d = now () -. t0 in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt self_s layer) in
      Hashtbl.replace self_s layer (prev +. ((d -. !nested) /. !host_slowdown));
      nested := outer +. d
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* --- sessions --- *)

type op_result = {
  items : int;  (** units of work done: decoded answers, requests, ... *)
  check : unit -> bool;  (** verifies the output; run outside the timing *)
}

type session = {
  inputs : int;  (** distinct inputs; operation [i] uses input [i mod inputs] *)
  run : int -> op_result;
  close : unit -> unit;
}

type workload = { name : string; setup : seed:int -> session }

(* --- statistics --- *)

(* Linear interpolation between closest ranks of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

type sample = { duration : float; items : int }

(* Operations per block: a multiple of every workload's input count, so
   each block cycles through all inputs equally often. *)
let block_ops = 48

(* The fewest operations pooled, so the pool's 90th percentile has at
   least 24 operations beyond it. *)
let min_quiet_ops = 240

(* The run's quietest tenth: measured operations are cut into
   consecutive blocks of [block_ops], and the tenth of the blocks with
   the lowest medians (at least [min_quiet_ops] operations' worth) is
   pooled. Returns the pool's sorted durations and its items per busy
   second; the whole run stands in when it is shorter than one block. *)
let quiet_tenth samples =
  let durations ss = sorted_array (List.map (fun s -> s.duration) ss) in
  let rec blocks acc cur n = function
    | [] -> acc
    | s :: rest ->
        if n + 1 = block_ops then blocks ((s :: cur) :: acc) [] 0 rest
        else blocks acc (s :: cur) (n + 1) rest
  in
  let pool =
    match blocks [] [] 0 samples with
    | [] -> samples
    | bs ->
        let ranked =
          List.sort
            (fun (a, _) (b, _) -> Float.compare a b)
            (List.map (fun b -> (quantile (durations b) 0.5, b)) bs)
        in
        let pooled =
          max (List.length bs / 10) ((min_quiet_ops + block_ops - 1) / block_ops)
        in
        List.concat_map snd (List.filteri (fun i _ -> i < pooled) ranked)
  in
  let sorted = durations pool in
  let items = List.fold_left (fun acc s -> acc + s.items) 0 pool in
  (sorted, float_of_int items /. Array.fold_left ( +. ) 0.0 sorted)

(* --- per-layer counters --- *)

(* Registry counters reported per operation in the traced run. *)
let counters =
  [
    "csr.builds"; "csr.cut_full"; "csr.flip_sweep_calls"; "conn.flows";
    "conn.by_triangle"; "partial.fallbacks"; "pool.tasks"; "serve.cache_hits";
    "serve.cache_misses"; "stream.compactions";
  ]

let read_counters () =
  List.map (fun c -> Dcs.Obs.Metrics.(counter_value (counter c))) counters

(* --- host speed --- *)

(* A fixed kernel owned by the benchmark — allocation, a sort, hashing and
   float sums, the mix the library's hot paths run — so library changes
   never move it, while a slowed host slows it with everything else. *)
let kernel () =
  let a = Array.init 2048 (fun i -> float_of_int ((i * 7919) land 2047)) in
  Array.sort Float.compare a;
  let h = Hashtbl.create 256 in
  Array.iteri (fun i x -> Hashtbl.replace h ((i * 31) land 1023) x) a;
  Hashtbl.fold (fun _ v acc -> acc +. v) h 0.0

(* The kernel's time on the reference host (a 2.0 GHz Xeon VM) when
   nothing else competes for it. *)
let reference_kernel_s = 0.00065

(* The host's current slowdown against the reference: the fastest of
   three kernel runs over [reference_kernel_s]. *)
let slowdown () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    best := Float.min !best (now () -. t0)
  done;
  !best /. reference_kernel_s

(* --- the run --- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

(* Set-ups per run: one before the warm-up, the rest spread evenly
   through the measured seconds. *)
let setup_reps = 7

let run_workload w ~seed ~seconds ~trace =
  let timed_setup () =
    Gc.compact ();
    let k = slowdown () in
    let t0 = now () in
    let s = w.setup ~seed in
    (s, (now () -. t0) /. k)
  in
  let s, first_setup = timed_setup () in
  Fun.protect ~finally:s.close @@ fun () ->
  let setups = ref [ first_setup ] in
  let attempted = ref 0 and failed = ref 0 and next = ref 0 in
  let timed_op () =
    let i = !next in
    incr next;
    let t0 = now () in
    let r = s.run i in
    let d = now () -. t0 in
    incr attempted;
    if not (r.check ()) then incr failed;
    { duration = d; items = r.items }
  in
  if block_ops mod s.inputs <> 0 then
    invalid_arg "perfbench: block_ops must be a multiple of the input count";
  (* Warm-up: one pass over the inputs (caches fill, reference outputs are
     computed once) and at least one second. *)
  let warm_until = now () +. 1.0 in
  while !next < s.inputs || now () < warm_until do
    ignore (timed_op ())
  done;
  Gc.compact ();
  let before = read_counters () in
  tracing := trace;
  Hashtbl.reset self_s;
  let samples = ref [] and slowdowns = ref [] and measured = ref 0 in
  (* Counter increments made by the interleaved set-ups. *)
  let in_setups = ref (List.map (fun _ -> 0) counters) in
  let t0 = now () in
  let stop = t0 +. seconds in
  let setup_every = seconds /. float_of_int (setup_reps - 1) in
  let next_setup = ref (t0 +. (setup_every /. 2.0)) in
  while now () < stop do
    (* Re-measure the host's speed at the start of every block. *)
    if !measured mod block_ops = 0 then begin
      host_slowdown := slowdown ();
      slowdowns := !host_slowdown :: !slowdowns
    end;
    let smp = timed_op () in
    samples := { smp with duration = smp.duration /. !host_slowdown } :: !samples;
    incr measured;
    if now () >= !next_setup then begin
      let tracing_was = !tracing and c0 = read_counters () in
      tracing := false;
      let extra, d = timed_setup () in
      extra.close ();
      tracing := tracing_was;
      in_setups :=
        List.map2 (fun n (a, b) -> n + b - a) !in_setups
          (List.combine c0 (read_counters ()));
      setups := d :: !setups;
      next_setup := !next_setup +. setup_every
    end
  done;
  tracing := false;
  let after = List.map2 ( - ) (read_counters ()) !in_setups in
  let ops = List.length !samples in
  let all = sorted_array (List.map (fun s -> s.duration) !samples) in
  let quiet, quiet_rate = quiet_tenth (List.rev !samples) in
  let ms x = 1000.0 *. x in
  let per_op x = x /. float_of_int ops in
  let k = sorted_array !slowdowns in
  Printf.eprintf
    "[perfbench %s seed %d: %d ops measured (%d in the quiet tenth), %d \
     attempted, %d failed, %d set-ups; host slowdown median %.3f max \
     %.3f; whole run p50 %.3f ms, p90 %.3f ms]\n\
     %!"
    w.name seed ops (Array.length quiet) !attempted !failed
    (List.length !setups) (quantile k 0.5)
    (quantile k 1.0)
    (ms (quantile all 0.5))
    (ms (quantile all 0.9));
  let metrics =
    if not trace then
      [
        ("op_p50_ms", ms (quantile quiet 0.5), "ms");
        ("op_p90_ms", ms (quantile quiet 0.9), "ms");
        ("items_per_s", quiet_rate, "1/s");
        ("setup_s", quantile (sorted_array !setups) 0.5, "s");
      ]
    else
      List.map
        (fun l ->
          ( layer_name l ^ ".self_ms",
            ms (per_op (Option.value ~default:0.0 (Hashtbl.find_opt self_s l))),
            "ms" ))
        layers
      @ List.map2
          (fun name (b, a) -> (name, per_op (float_of_int (a - b)), "count"))
          counters
          (List.combine before after)
      @ [ ("op_p50_ms_traced", ms (quantile quiet 0.5), "ms") ]
  in
  { correct = !failed = 0; attempted = !attempted; failed = !failed; metrics }

let to_json r =
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
