(* E20 — Batched kernels + chunked pool, scheduled as DAG stages.

   BENCH_005's E10 measured the old per-task fan-out *losing* throughput
   as domains grew (0.43x at 2 domains, 0.14x at 4, single core): every
   task paid spawn/sync overhead and allocated its working set, and every
   minor collection is a stop-the-world rendezvous of all domains. This
   experiment drives the replacement — [Pool.run_batched] chunk scheduling
   with per-domain scratch arenas feeding the dense [Csr.cut_many] /
   [Csr.flip_sweep] kernels — through the E4/E19 decode battery and a
   Karger repetition sweep at explicit domain counts 1/2/4, and enforces:

   - decisions and cut values byte-identical across domain counts (the
     arrays are compared, not sampled);
   - wall-clock floors at 4 domains vs 1: >= 3x on a host with >= 4
     cores; on smaller hosts a >= 0.5x anti-regression floor — the old
     pool's 0.14x collapse must not come back — with figures on stderr;
   - the registry counters (pool and csr families) agreeing with
     closed-form expectations, E18-style;
   - the lifted enumerate guard: a k = 28 decode (the old ceiling was 26)
     completes through the block-buffered flip_sweep decoder.

   All three stages are [Serial]: they spawn their own explicit-domain
   [Pool.run_batched] fan-outs, measure wall clock, and probe global
   pool.*/csr.* registry deltas, so they must run alone in the scheduling
   domain after the level's pooled stages have joined. The registry deltas
   are measured inside the stage and shipped in its artifact, so a warm
   rerun prints the identical check table. The instance and freeze stages
   come from [Pipelines] and are shared with E4/E19 on the battery grid
   (the (1,16) grid row runs at the shared 24 trials for that reason).
   [plan ~floors:false] declares the same stages minus the wall-clock
   floors (E23 uses it: cache behavior must not depend on timing luck). *)

open Dcs
module F = Forall_lb
module P = Pipelines

let binom n k =
  let k = min k (n - k) in
  let acc = ref 1 in
  for i = 1 to k do
    acc := !acc * (n - k + i) / i
  done;
  !acc

(* The wall-clock contract. Figures go to stderr; only pass/fail shape
   reaches stdout. *)
let enforce_floor name ~s1 ~s4 =
  let sp = s1 /. Float.max s4 1e-9 in
  Printf.eprintf "  [E20 %s: d=1 %.3fs, d=4 %.3fs, speedup %.2fx, %d cores]\n%!"
    name s1 s4 sp Common.cores;
  if Common.cores >= 4 then begin
    if sp < 3.0 then
      failwith
        (Printf.sprintf "E20: %s speedup %.2fx < 3x at 4 domains (%d cores)"
           name sp Common.cores)
  end
  else if sp < 0.5 then
    failwith
      (Printf.sprintf
         "E20: %s speedup %.2fx < 0.5x at 4 domains — chunked-pool \
          anti-regression floor (%d cores)"
         name sp Common.cores)

let floor_note () =
  Common.note "floors: >= 3x (d=4 vs d=1) on hosts with >= 4 cores; >= 0.5x";
  Common.note "anti-regression otherwise (the old pool measured 0.14x).";
  Common.note
    "(wall-clock figures on stderr, excluded from the determinism diff)."

(* Decision-identity coverage on the battery grid (shared with E4/E19)... *)
let grid_cfgs =
  [ (1, 8, P.battery_trials); (2, 8, P.battery_trials); (1, 16, P.battery_trials) ]

(* ...and the timed battery on k = 20, big enough that scheduling and
   allocation behavior — not timer noise — dominates. *)
let timed_cfg = (1, 20, 24)

(* One decode battery at an explicit domain count: the instances' graphs
   are frozen once (shared read-only across domains), each worker domain
   holds one decode scratch, and task [i] decodes instance [i]. *)
let decode_battery ~domains p insts csrs =
  Pool.run_batched ~domains
    ~arena:(fun () -> F.decode_scratch p)
    ~n:(Array.length insts)
    (fun scratch i ->
      F.decode_enumerate_frozen ~scratch p csrs.(i) insts.(i).F.target
        ~t:insts.(i).F.gh.Gap_hamming.t)

(* Artifact: (pool.batched_calls delta, pool.tasks delta, expected
   batteries, expected tasks, rows) — the deltas are measured inside the
   stage so warm reruns print the identical registry table. *)
let battery_stage pl ~floors =
  let cfgs = grid_cfgs @ [ timed_cfg ] in
  let nodes =
    List.map
      (fun (beta, d, trials) ->
        let n = 2 * beta * d in
        ( (beta, d, trials),
          P.forall_instances pl ~beta ~d ~n ~trials,
          P.forall_csrs pl ~beta ~d ~n ~trials ))
      cfgs
  in
  let deps =
    List.concat_map (fun (_, i, c) -> [ Sched.dep i; Sched.dep c ]) nodes
  in
  Sched.stage (P.dag pl) ~name:"batched.battery" ~mode:Sched.Serial
    ~codec:(Sched.marshal_codec ()) ~deps
    (fun () ->
      let pb = Common.probe "pool.batched_calls" in
      let pt = Common.probe "pool.tasks" in
      let timed = ref [] in
      let rows =
        List.map
          (fun ((beta, d, trials), insts_nd, csrs_nd) ->
            let n = 2 * beta * d in
            let p = F.make_params ~beta ~inv_eps_sq:d n in
            let k = F.block_size p in
            let insts = P.value pl insts_nd in
            let csrs = P.value pl csrs_nd in
            let by_domains =
              List.map
                (fun dom ->
                  let dec, s =
                    Common.time (fun () ->
                        decode_battery ~domains:dom p insts csrs)
                  in
                  timed := (k, dom, s) :: !timed;
                  dec)
                Common.domain_grid
            in
            let identical =
              match by_domains with
              | ref_dec :: rest -> List.for_all (fun dec -> dec = ref_dec) rest
              | [] -> assert false
            in
            if not identical then
              failwith "E20: decode decisions diverge across domain counts";
            (beta, d, n, k, trials))
          nodes
      in
      (* Floors on the k = 20 battery only (the grid rows are
         sub-millisecond). *)
      let timed_k = (fun (beta, d, _) -> beta * d) timed_cfg in
      let sec dom =
        List.assoc dom
          (List.filter_map
             (fun (k, d, s) -> if k = timed_k then Some (d, s) else None)
             !timed)
      in
      if floors then
        enforce_floor
          (Printf.sprintf "decode battery k=%d" timed_k)
          ~s1:(sec 1) ~s4:(sec 4);
      let batteries = List.length cfgs * List.length Common.domain_grid in
      let tasks =
        List.fold_left
          (fun acc (_, _, tr) -> acc + (tr * List.length Common.domain_grid))
          0 cfgs
      in
      (Common.delta pb, Common.delta pt, batteries, tasks, rows))

(* Artifact: (k, decode correct). The flips-vs-registry identity is
   enforced inside the stage. *)
let guard_stage pl =
  let insts = P.forall_instances pl ~beta:1 ~d:28 ~n:56 ~trials:1 in
  let csrs = P.forall_csrs pl ~beta:1 ~d:28 ~n:56 ~trials:1 in
  Sched.stage (P.dag pl) ~name:"batched.guard" ~mode:Sched.Serial
    ~codec:(Sched.marshal_codec ())
    ~deps:[ Sched.dep insts; Sched.dep csrs ]
    (fun () ->
      let p = F.make_params ~beta:1 ~inv_eps_sq:28 56 in
      let k = F.block_size p in
      let inst = (P.value pl insts).(0) in
      let csr = (P.value pl csrs).(0) in
      let pd = Common.probe "csr.cut_delta" in
      let pf = Common.probe "csr.flip_sweep_calls" in
      let dec, s =
        Common.time (fun () ->
            F.decode_enumerate_frozen p csr inst.F.target
              ~t:inst.F.gh.Gap_hamming.t)
      in
      Printf.eprintf "  [E20 enumerate k=28: %.3fs, %d flip_sweep calls]\n%!" s
        (Common.delta pf);
      (* Every membership toggle of the walk went through the batched
         kernel. *)
      let flips = ref 0 in
      F.iter_combinations_incremental ~n:k ~k:(k / 2)
        ~flip:(fun _ -> incr flips)
        ~visit:(fun _ -> ());
      if Common.delta pd <> !flips then
        failwith "E20: flip_sweep cut_delta count diverges from the subset walk";
      (k, dec = F.correct_decision inst))

(* Artifact: (n, edges, trials, min-cut value). Cross-domain identity and
   the floors are enforced inside the stage. *)
let karger_stage pl ~floors =
  let graph =
    P.weighted_graph pl ~tag:"batched.karger" ~n:200 ~p:0.05 ~max_weight:8
  in
  let name = "batched.karger" in
  Sched.stage (P.dag pl) ~name ~fingerprint:(P.fp_of name) ~mode:Sched.Serial
    ~codec:(Sched.marshal_codec ())
    ~deps:[ Sched.dep graph ]
    (fun () ->
      let g = P.value pl graph in
      let seed = P.seed_rng name in
      let trials = 600 in
      let runs =
        List.map
          (fun dom ->
            let r, s =
              Common.time (fun () ->
                  Karger.mincut ~domains:dom (Prng.copy seed) ~trials g)
            in
            (dom, r, s))
          Common.domain_grid
      in
      let _, (v1, c1), s1 = List.hd runs in
      List.iter
        (fun (dom, (v, c), _) ->
          if not (v = v1 && Cut.equal c c1) then
            failwith
              (Printf.sprintf "E20: Karger result diverges at %d domains" dom))
        runs;
      let s4 =
        match List.find_opt (fun (d, _, _) -> d = 4) runs with
        | Some (_, _, s) -> s
        | None -> assert false
      in
      if floors then enforce_floor "karger sweep n=200" ~s1 ~s4;
      (Ugraph.n g, Ugraph.m g, trials, v1))

let plan ~floors pl =
  let battery = battery_stage pl ~floors in
  let guard = guard_stage pl in
  let karger = karger_stage pl ~floors in
  fun () ->
    Common.section "E20 Batched kernels + chunked pool: multicore throughput";
    let d_pb, d_pt, batteries, tasks, rows = P.value pl battery in
    let t =
      Table.create
        ~title:
          "E4/E19 decode battery through run_batched: decisions across domains"
        ~columns:
          [ "beta"; "1/eps^2"; "n"; "k"; "decodes"; "subsets/decode"; "d=1/2/4" ]
    in
    List.iter
      (fun (beta, d, n, k, trials) ->
        Table.add_row t
          [
            Table.fint beta; Table.fint d; Table.fint n; Table.fint k;
            Table.fint trials;
            Table.fint (binom k (k / 2));
            "identical";
          ])
      rows;
    Table.print t;
    floor_note ();
    (* Registry cross-check: 4 configs x 3 domain counts, measured inside
       the stage. *)
    let ct =
      Common.checks [ "invariant" ]
        "pool.* registry vs expected (12 battery runs)"
    in
    Common.check ct [ "pool.batched_calls = one per battery" ]
      ~expected:batteries ~registry:d_pb;
    Common.check ct [ "pool.tasks = decodes x domain counts" ] ~expected:tasks
      ~registry:d_pt;
    Common.print_checks ct
      ~failure:"E20: pool registry disagrees with closed-form expectations";
    print_newline ();
    let t =
      Table.create
        ~title:"enumerate guard lifted: k = 28 (old ceiling 26) via flip_sweep"
        ~columns:[ "beta"; "1/eps^2"; "n"; "k"; "subsets"; "result" ]
    in
    let k, correct = P.value pl guard in
    Table.add_row t
      [
        "1"; "28"; "56"; Table.fint k;
        Table.fint (binom k (k / 2));
        Printf.sprintf "decoded (%s), deltas = walk flips"
          (if correct then "correct" else "incorrect");
      ];
    Table.print t;
    Common.note "k in (26, 28] was rejected before this PR; the block-buffered";
    Common.note "decoder records toggles and flushes them through flip_sweep.";
    print_newline ();
    let t =
      Table.create
        ~title:"Karger repetition sweep through run_batched: scratch arenas"
        ~columns:[ "n"; "edges"; "trials"; "value"; "d=1/2/4" ]
    in
    let n, m, trials, v1 = P.value pl karger in
    Table.add_row t
      [
        Table.fint n;
        Table.fint m;
        Table.fint trials;
        Printf.sprintf "%g" v1;
        "identical";
      ];
    Table.print t;
    Common.note "per-domain scratch: edge clocks, sort permutation, union-find";
    Common.note "arrays — a contraction run allocates only its result cut."
