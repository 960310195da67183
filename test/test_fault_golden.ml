open Dcs

(* Golden pins for the fault layer: the coordinator's robust pipeline,
   the estimator and VERIFY-GUESS against a flaky oracle, and the retry
   schedules. Every expected line was computed with the implementation in
   which the oracle's recovery lived in a separate wrapper module and the
   coordinator hand-rolled its re-request loop; moving recovery into the
   media must reproduce each line exactly. One field has moved since: the
   heavy line loses a coarse sketch, so its eps_effective is infinity. *)

let fl = Printf.sprintf "%.17g"

let ints l = String.concat "," (List.map string_of_int l)

(* Ascending members as runs: [0; 1; 2; 5] is "0-2,5". *)
let ranges l =
  let run a b = if a = b then string_of_int a else Printf.sprintf "%d-%d" a b in
  let rec go acc a b = function
    | x :: rest when x = b + 1 -> go acc a x rest
    | x :: rest -> go (run a b :: acc) x x rest
    | [] -> List.rev (run a b :: acc)
  in
  match l with [] -> "" | x :: rest -> String.concat "," (go [] x x rest)

let counter_deltas names f =
  let read () =
    List.map (fun n -> Obs.Metrics.counter_value (Obs.Metrics.counter n)) names
  in
  let before = read () in
  let r = f () in
  (r, List.map2 ( - ) (read ()) before)

(* --- Coordinator over lossy channels --- *)

(* Every channel meter but [channel.gave_up], which counts the
   coordinator's give-ups only since its deliveries go through
   [Channel.transmit_reliable]. *)
let channel_meters =
  [
    "channel.bits";
    "channel.messages";
    "channel.first_send_bits";
    "channel.retransmit_bits";
    "channel.deliveries";
    "channel.drops";
    "channel.corruptions_injected";
  ]

let coord_graph =
  lazy (Generators.planted_mincut (Prng.create 60) ~block:40 ~k:5 ~p_inner:0.4)

let coord_cfg =
  { (Coordinator.default_config ~eps:0.3) with Coordinator.karger_trials = 40 }

let coord_policies =
  [
    ("drop", Fault.policy ~drop:0.3 ());
    ("corrupt", Fault.policy ~corrupt:0.3 ());
    ("timeout", Fault.policy ~timeout:0.5 ());
    ("timeout-all", Fault.policy ~timeout:1.0 ());
    ("mixed", Fault.policy ~drop:0.2 ~corrupt:0.2 ~timeout:0.2 ());
    ("heavy", Fault.policy ~drop:0.5 ~corrupt:0.3 ~timeout:0.3 ());
  ]

let coord_run policy =
  let g = Lazy.force coord_graph in
  let shards = Partition.random (Prng.create 61) ~servers:3 g in
  let fault = Fault.create policy (Prng.create 63) in
  counter_deltas channel_meters (fun () ->
      match Coordinator.min_cut_robust (Prng.create 62) coord_cfg ~fault shards with
      | r -> Some r
      | exception Failure _ -> None)

let render_coord (r, meters) =
  match r with
  | None -> "failure channel=" ^ ints meters
  | Some { Coordinator.base = b; report = p } ->
      Printf.sprintf
        "est=%s coarse=%s cands=%d cut=%s bits=%d/%d retrans=%d drops=%d \
         corrupt=%d strag=%d spec=%d lost=%d/%d cksum=%d rbits=%d ctrl=%d \
         backoff=%d eps=%s degraded=%b channel=%s"
        (fl b.Coordinator.estimate)
        (fl b.Coordinator.coarse_estimate)
        b.Coordinator.candidates
        (ranges (Cut.to_list b.Coordinator.cut))
        b.Coordinator.forall_bits b.Coordinator.foreach_bits
        p.Coordinator.retransmissions p.Coordinator.drops_seen
        p.Coordinator.corruptions_detected p.Coordinator.stragglers
        p.Coordinator.speculative_retransmissions p.Coordinator.coarse_lost
        p.Coordinator.fine_lost p.Coordinator.checksum_bits
        p.Coordinator.retransmit_bits p.Coordinator.control_bits
        p.Coordinator.backoff_units (fl p.Coordinator.eps_effective)
        p.Coordinator.degraded (ints meters)

(* --- Estimator and VERIFY-GUESS against a flaky oracle --- *)

let query_graph =
  lazy (Generators.planted_mincut (Prng.create 70) ~block:40 ~k:6 ~p_inner:0.5)

(* (timeout, lie, vote_k); [None] takes the default vote count. *)
let query_grid =
  [
    (0.0, 0.0, Some 1);
    (0.1, 0.0, None);
    (0.2, 0.1, Some 3);
    (0.3, 0.15, None);
    (0.2, 0.1, Some 5);
    (0.6, 0.0, Some 1);
    (1.0, 0.0, None);
  ]

let grid_name (timeout, lie, vote_k) =
  Printf.sprintf "t%.2f l%.2f k%s" timeout lie
    (match vote_k with Some k -> string_of_int k | None -> "-")

(* The one place the flaky oracle is built. *)
let flaky (timeout, lie, vote_k) seed =
  let fault = Fault.create (Fault.policy ~timeout ~lie ()) (Prng.create seed) in
  Oracle.create ~fault ?vote_k (Lazy.force query_graph)

let meters o =
  let s = Oracle.stats o in
  Printf.sprintf "q=%d/%d/%d bits=%d retries=%d votes=%d backoff=%d"
    s.Oracle.degree_queries s.Oracle.edge_queries s.Oracle.adjacency_queries
    (Oracle.comm_bits o) s.Oracle.retries s.Oracle.votes_cast
    s.Oracle.backoff_units

let estimator_case cell =
  let o = flaky cell 71 in
  match Estimator.estimate (Prng.create 72) o ~eps:0.5 ~mode:Estimator.Modified with
  | r ->
      Printf.sprintf "est=%s acc=%b deg=%d edge=%d total=%d bits=%d calls=%d %s"
        (fl r.Estimator.estimate) r.Estimator.accepted
        r.Estimator.degree_queries r.Estimator.edge_queries
        r.Estimator.total_queries r.Estimator.comm_bits
        r.Estimator.search_calls (meters o)
  | exception Oracle.Exhausted _ -> "exhausted " ^ meters o

let verify_case cell =
  let g = Lazy.force query_graph in
  let degrees = Array.init (Ugraph.n g) (Ugraph.degree g) in
  let o = flaky cell 73 in
  match Verify_guess.run (Prng.create 74) o ~degrees ~t:4.0 ~eps:0.5 with
  | r ->
      Printf.sprintf "acc=%b est=%s edge=%d sample=%d p=%s %s"
        r.Verify_guess.accepted (fl r.Verify_guess.estimate)
        r.Verify_guess.edge_queries r.Verify_guess.sample_edges
        (fl r.Verify_guess.p) (meters o)
  | exception Oracle.Exhausted _ -> "exhausted " ^ meters o

(* Every query kind, lies included: a digest of the answers. *)
let sweep_case cell =
  let o = flaky cell 75 in
  let n = Oracle.n o in
  let b = Buffer.create 4096 in
  let answers =
    try
      for u = 0 to n - 1 do
        let d = Oracle.degree o u in
        Buffer.add_string b (Printf.sprintf "d%d " d);
        for i = 0 to (u mod 3) + 1 do
          match Oracle.ith_neighbor o u i with
          | Some v -> Buffer.add_string b (Printf.sprintf "n%d " v)
          | None -> Buffer.add_string b "n_ "
        done;
        Buffer.add_string b
          (if Oracle.adjacent o u ((u * 7 + 3) mod n) then "a1 " else "a0 ")
      done;
      Digest.to_hex (Digest.string (Buffer.contents b))
    with Oracle.Exhausted _ -> "exhausted"
  in
  answers ^ " " ^ meters o

(* --- Retry schedules --- *)

let retry_case () =
  let b = Buffer.create 4096 in
  let attempts = ref 0 and backoff = ref 0 in
  let note (o : int Retry.outcome) =
    attempts := !attempts + o.Retry.attempts;
    backoff := !backoff + o.Retry.backoff_units;
    Buffer.add_string b
      (Printf.sprintf "%s/%d/%d;"
         (match o.Retry.value with Some v -> string_of_int v | None -> "_")
         o.Retry.attempts o.Retry.backoff_units)
  in
  for budget = 1 to 6 do
    for first = 0 to 7 do
      note
        (Retry.with_budget ~budget (fun ~attempt ->
             if attempt >= first then Some attempt else None))
    done
  done;
  let plain = Printf.sprintf "budget %d/%d" !attempts !backoff in
  attempts := 0;
  backoff := 0;
  List.iter
    (fun (base, cap) ->
      for seed = 0 to 2 do
        for budget = 1 to 5 do
          for first = 0 to 6 do
            let rng = Prng.create ((100 * seed) + (10 * budget) + first) in
            note
              (Retry.with_jittered_backoff ~budget ~base ~cap ~rng
                 (fun ~attempt -> if attempt >= first then Some attempt else None))
          done
        done
      done)
    [ (1, 64); (2, 8); (3, 5) ];
  Printf.sprintf "%s jittered %d/%d %s" plain !attempts !backoff
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- Expected lines --- *)

let expected_coord =
  [
    ( "drop",
      "est=5 coarse=5 cands=4 \
       cut=0-39 \
       bits=53592/53592 retrans=2 drops=2 corrupt=0 strag=0 spec=0 \
       lost=0/0 cksum=192 rbits=34752 ctrl=192 backoff=2 \
       eps=0.29999999999999999 degraded=false \
       channel=142128,8,107376,34752,6,2,0" );
    ( "corrupt",
      "est=5 coarse=5 cands=4 \
       cut=0-39 \
       bits=53592/53592 retrans=3 drops=0 corrupt=3 strag=0 spec=0 \
       lost=0/0 cksum=192 rbits=54702 ctrl=192 backoff=4 \
       eps=0.29999999999999999 degraded=false \
       channel=162078,9,107376,54702,9,0,3" );
    ( "timeout",
      "est=5 coarse=5 cands=4 \
       cut=0-39 \
       bits=53592/53592 retrans=6 drops=0 corrupt=0 strag=6 spec=6 \
       lost=0/0 cksum=192 rbits=108390 ctrl=192 backoff=10 \
       eps=0.29999999999999999 degraded=false \
       channel=215766,12,107376,108390,12,0,0" );
    ( "timeout-all",
      "est=5 coarse=5 cands=4 \
       cut=0-39 \
       bits=53592/53592 retrans=24 drops=0 corrupt=0 strag=30 spec=24 \
       lost=0/0 cksum=192 rbits=429504 ctrl=192 backoff=186 \
       eps=0.29999999999999999 degraded=false \
       channel=536880,30,107376,429504,30,0,0" );
    ( "mixed",
      "est=5 coarse=5 cands=4 \
       cut=0-39 \
       bits=53592/53592 retrans=5 drops=2 corrupt=2 strag=1 spec=1 \
       lost=0/0 cksum=192 rbits=92574 ctrl=192 backoff=16 \
       eps=0.29999999999999999 degraded=false \
       channel=199950,11,107376,92574,9,2,2" );
    ( "heavy",
      "est=5 coarse=3 cands=2 \
       cut=0-39 \
       bits=53592/53592 retrans=11 drops=7 corrupt=2 strag=4 spec=3 \
       lost=1/0 cksum=192 rbits=198078 ctrl=192 backoff=50 \
       eps=inf degraded=true \
       channel=305454,17,107376,198078,10,7,4" );
  ]

let expected_estimator =
  [
    ( "t0.00 l0.00 k1",
      "est=6 acc=true deg=80 edge=4806 total=4886 bits=9612 calls=2 \
       q=80/4806/0 bits=9612 retries=0 votes=4886 backoff=0" );
    ( "t0.10 l0.00 k-",
      "est=6 acc=true deg=87 edge=5355 total=5442 bits=10710 calls=2 \
       q=87/5355/0 bits=10710 retries=556 votes=4886 backoff=614" );
    ( "t0.20 l0.10 k3",
      "est=12.5 acc=true deg=298 edge=12443 total=12741 bits=24886 \
       calls=1 q=298/12443/0 bits=24886 retries=2523 votes=10218 \
       backoff=3367" );
    ( "t0.30 l0.15 k-",
      "est=10.5 acc=true deg=345 edge=15937 total=16282 bits=31874 \
       calls=1 q=345/15937/0 bits=31874 retries=4882 votes=11400 \
       backoff=8250" );
    ( "t0.20 l0.10 k5",
      "est=6 acc=true deg=505 edge=29993 total=30498 bits=59986 \
       calls=2 q=505/29993/0 bits=59986 retries=6068 votes=24430 \
       backoff=8003" );
    ( "t0.60 l0.00 k1",
      "exhausted q=8/0/0 bits=0 retries=7 votes=1 backoff=127" );
    ( "t1.00 l0.00 k-",
      "exhausted q=8/0/0 bits=0 retries=7 votes=1 backoff=127" );
  ]

let expected_verify =
  [
    ( "t0.00 l0.00 k1",
      "acc=true est=6 edge=1602 sample=801 p=1 q=0/1602/0 bits=3204 \
       retries=0 votes=1602 backoff=0" );
    ( "t0.10 l0.00 k-",
      "acc=true est=6 edge=1602 sample=801 p=1 q=0/1789/0 bits=3578 \
       retries=187 votes=1602 backoff=213" );
    ( "t0.20 l0.10 k3",
      "acc=true est=12 edge=1602 sample=822 p=1 q=0/6115/0 bits=12230 \
       retries=1309 votes=4806 backoff=1828" );
    ( "t0.30 l0.15 k-",
      "acc=true est=13.5 edge=1602 sample=852 p=1 q=0/6912/0 \
       bits=13824 retries=2106 votes=4806 backoff=3643" );
    ( "t0.20 l0.10 k5",
      "acc=true est=6 edge=1602 sample=801 p=1 q=0/10096/0 bits=20192 \
       retries=2086 votes=8010 backoff=2864" );
    ( "t0.60 l0.00 k1",
      "exhausted q=0/77/0 bits=154 retries=49 votes=28 backoff=293" );
    ( "t1.00 l0.00 k-",
      "exhausted q=0/8/0 bits=16 retries=7 votes=1 backoff=127" );
  ]

let expected_sweep =
  [
    ( "t0.00 l0.00 k1",
      "11ccc06a0e7c207ebc8c68bb1e9a2b1d q=80/239/80 bits=638 \
       retries=0 votes=399 backoff=0" );
    ( "t0.10 l0.00 k-",
      "11ccc06a0e7c207ebc8c68bb1e9a2b1d q=86/268/90 bits=716 \
       retries=45 votes=399 backoff=58" );
    ( "t0.20 l0.10 k3",
      "cae0efdd7af4c76aec8847b2bbd09fa1 q=294/902/299 bits=2402 \
       retries=298 votes=1197 backoff=421" );
    ( "t0.30 l0.15 k-",
      "18fd7901bd74f155caceff00d2255382 q=326/1021/344 bits=2730 \
       retries=494 votes=1197 backoff=814" );
    ( "t0.20 l0.10 k5",
      "96015632d4e25be0fda2fc07e42c2fac q=493/1493/499 bits=3984 \
       retries=490 votes=1995 backoff=649" );
    ( "t0.60 l0.00 k1",
      "exhausted q=18/49/11 bits=120 retries=50 votes=28 backoff=285" );
    ( "t1.00 l0.00 k-",
      "exhausted q=8/0/0 bits=0 retries=7 votes=1 backoff=127" );
  ]

let expected_retry =
  "budget 133/255 jittered 765/961 74e2cc76283aa69f003582faa9fb2426"

let check_lines what expected actual =
  Alcotest.(check (list (pair string string))) what expected actual

let test_coordinator_pins () =
  check_lines "coord" expected_coord
    (List.map (fun (name, p) -> (name, render_coord (coord_run p))) coord_policies)

let test_estimator_pins () =
  check_lines "estimator" expected_estimator
    (List.map (fun c -> (grid_name c, estimator_case c)) query_grid)

let test_verify_pins () =
  check_lines "verify" expected_verify
    (List.map (fun c -> (grid_name c, verify_case c)) query_grid)

let test_sweep_pins () =
  check_lines "sweep" expected_sweep
    (List.map (fun c -> (grid_name c, sweep_case c)) query_grid)

let test_retry_pins () =
  Alcotest.(check string) "retry" expected_retry (retry_case ())

(* The coordinator bumps each [coord.*] counter by its report's field, so
   over a batch of runs the registry deltas equal the field-wise sums. *)
let coord_counters =
  [
    "coord.runs";
    "coord.shards";
    "coord.retransmissions";
    "coord.drops_seen";
    "coord.corruptions_detected";
    "coord.stragglers";
    "coord.speculative_retransmissions";
    "coord.coarse_lost";
    "coord.fine_lost";
    "coord.backoff_units";
  ]

let test_coord_registry_identity () =
  let g = Lazy.force coord_graph in
  let shards = Partition.random (Prng.create 64) ~servers:4 g in
  let policies = List.map snd coord_policies in
  let reports, deltas =
    counter_deltas coord_counters (fun () ->
        List.mapi
          (fun i policy ->
            let fault = Fault.create policy (Prng.create (80 + i)) in
            let r = Coordinator.min_cut_robust (Prng.create (90 + i)) coord_cfg ~fault shards in
            r.Coordinator.report)
          (List.filter (fun p -> p.Fault.drop_rate < 0.5) policies))
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let runs = List.length reports in
  Alcotest.(check (list int)) "coord.* deltas = summed reports"
    [
      runs;
      runs * Array.length shards;
      sum (fun r -> r.Coordinator.retransmissions);
      sum (fun r -> r.Coordinator.drops_seen);
      sum (fun r -> r.Coordinator.corruptions_detected);
      sum (fun r -> r.Coordinator.stragglers);
      sum (fun r -> r.Coordinator.speculative_retransmissions);
      sum (fun r -> r.Coordinator.coarse_lost);
      sum (fun r -> r.Coordinator.fine_lost);
      sum (fun r -> r.Coordinator.backoff_units);
    ]
    deltas;
  Alcotest.(check bool) "the batch saw faults" true
    (sum (fun r -> r.Coordinator.retransmissions) > 0)

(* Since the coordinator's deliveries go through the channel's bounded
   loop, its give-ups land on [channel.gave_up] too: when every attempt
   straggles, each of the 3 coarse and 3 fine deliveries gives up and
   falls back to its late copy. *)
let test_coord_give_ups_metered () =
  let (r, _), gave_up =
    counter_deltas [ "channel.gave_up" ] (fun () ->
        coord_run (Fault.policy ~timeout:1.0 ()))
  in
  Alcotest.(check (list int)) "channel.gave_up" [ 6 ] gave_up;
  match r with
  | Some { Coordinator.report = p; _ } ->
      Alcotest.(check int) "nothing lost" 0
        (p.Coordinator.coarse_lost + p.Coordinator.fine_lost)
  | None -> Alcotest.fail "the late copies were not used"

let suite =
  [
    Alcotest.test_case "golden: robust coordinator" `Quick test_coordinator_pins;
    Alcotest.test_case "golden: estimator" `Quick test_estimator_pins;
    Alcotest.test_case "golden: verify-guess" `Quick test_verify_pins;
    Alcotest.test_case "golden: query sweep" `Quick test_sweep_pins;
    Alcotest.test_case "golden: retry schedules" `Quick test_retry_pins;
    Alcotest.test_case "coord.* deltas = summed reports" `Quick test_coord_registry_identity;
    Alcotest.test_case "coordinator give-ups on channel.gave_up" `Quick
      test_coord_give_ups_metered;
  ]
