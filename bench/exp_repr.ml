(* E19 — Representation: frozen CSR arrays vs hashtable adjacency on the
   cut-evaluation hot paths, scheduled as DAG stages.

   Three claims are checked, all with the old path still executed as the
   reference:

   (a) The Lemma 4.4 enumerate decoder over the E4 battery grid and on a
   4-chain instance: the CSR walk (one frozen build, one seed cut, then
   [Csr.cut_delta] per membership flip) must return the SAME decision as
   the per-subset full-query path on every instance. Aggregate speedups
   are enforced (>= 2x on the battery, >= 5x on the enumerate instance)
   but their wall-clock values go to stderr only: stdout carries counts
   and agreement flags, and stays byte-identical across DCS_DOMAINS.

   (b) k = 24: the CSR path decodes C(24,12) ≈ 2.7M subsets in seconds —
   the configuration the old [k > 20] guard rejected outright.

   (c) A Karger repetition sweep: every repetition's CSR-evaluated cut
   value must equal a from-scratch hashtable recomputation exactly
   (integer weights), and the csr.* registry counters must agree with
   closed-form expectations, E18-style.

   Every stage here is [Serial]: they measure wall clock (the floors) or
   probe global csr.* registry deltas, so they must run alone in the
   scheduling domain, after the level's pooled stages have joined. The
   instance families come from the shared [Pipelines] stages (the battery
   grid is E4's and E20's), so a merged DAG generates them once. [plan
   ~floors:false] declares the same stages minus the wall-clock floors
   (E23 uses it: cache behavior must not depend on timing luck). *)

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

let speedup ~ref_s ~csr_s = ref_s /. Float.max csr_s 1e-9

(* Decode every pre-generated instance through both paths; returns
   (decisions agree, ref seconds, csr seconds). The reference path queries
   the instance graph's hashtables directly (the pre-CSR behavior); the CSR
   path freezes the same graph per decode. *)
let decode_both p insts =
  let n = Array.length insts in
  let decode i ~frozen =
    let inst = insts.(i) in
    let g = inst.F.graph in
    let graph = if frozen then Some g else None in
    F.decode_enumerate ?graph p
      ~query:(fun s -> Cut.value g s)
      inst.F.target ~t:inst.F.gh.Gap_hamming.t
  in
  let ref_dec = Array.make n F.Delta_high in
  let csr_dec = Array.make n F.Delta_high in
  let (), ref_s =
    Common.time (fun () ->
        for i = 0 to n - 1 do
          ref_dec.(i) <- decode i ~frozen:false
        done)
  in
  let (), csr_s =
    Common.time (fun () ->
        for i = 0 to n - 1 do
          csr_dec.(i) <- decode i ~frozen:true
        done)
  in
  (ref_dec = csr_dec, ref_s, csr_s)

(* (a) the battery: both decode paths over the shared instance grid;
   artifact = one row of counts per configuration. *)
let battery_stage pl ~floors =
  let insts_nodes =
    List.map
      (fun (beta, d) ->
        ( (beta, d),
          P.forall_instances pl ~beta ~d ~n:(2 * beta * d)
            ~trials:P.battery_trials ))
      P.battery
  in
  Sched.stage (P.dag pl) ~name:"repr.battery" ~mode:Sched.Serial
    ~codec:(Sched.marshal_codec ())
    ~deps:(List.map (fun (_, nd) -> Sched.dep nd) insts_nodes)
    (fun () ->
      let total_ref = ref 0.0 and total_csr = ref 0.0 in
      let rows =
        List.map
          (fun ((beta, d), nd) ->
            let n = 2 * beta * d in
            let p = F.make_params ~beta ~inv_eps_sq:d n in
            let k = F.block_size p in
            let insts = P.value pl nd in
            let agree, ref_s, csr_s = decode_both p insts in
            if not agree then
              failwith "E19: decode decisions diverge between representations";
            total_ref := !total_ref +. ref_s;
            total_csr := !total_csr +. csr_s;
            Printf.eprintf
              "  [E19 battery beta=%d 1/eps^2=%d: ref %.3fs, csr %.3fs, %.1fx]\n%!"
              beta d ref_s csr_s (speedup ~ref_s ~csr_s);
            (beta, d, n, k, Array.length insts))
          insts_nodes
      in
      let s = speedup ~ref_s:!total_ref ~csr_s:!total_csr in
      Printf.eprintf
        "  [E19 battery total: ref %.3fs, csr %.3fs, speedup %.1fx]\n%!"
        !total_ref !total_csr s;
      if floors && s < 2.0 then
        failwith (Printf.sprintf "E19: decode battery speedup %.2fx < 2x" s);
      rows)

(* (b) enumerate: k = 16 on both paths with a >= 5x floor, k = 24 CSR-only.
   Artifact: the k = 24 correctness count. *)
let enumerate_stage pl ~floors =
  let insts16 = P.forall_instances pl ~beta:1 ~d:16 ~n:64 ~trials:8 in
  let insts24 = P.forall_instances pl ~beta:2 ~d:12 ~n:48 ~trials:3 in
  Sched.stage (P.dag pl) ~name:"repr.enumerate" ~mode:Sched.Serial
    ~codec:(Sched.marshal_codec ())
    ~deps:[ Sched.dep insts16; Sched.dep insts24 ]
    (fun () ->
      let p16 = F.make_params ~beta:1 ~inv_eps_sq:16 64 in
      let agree, ref_s, csr_s = decode_both p16 (P.value pl insts16) in
      if not agree then
        failwith "E19: enumerate decisions diverge between representations";
      let s = speedup ~ref_s ~csr_s in
      Printf.eprintf
        "  [E19 enumerate k=16: ref %.3fs, csr %.3fs, speedup %.1fx]\n%!" ref_s
        csr_s s;
      if floors && s < 5.0 then
        failwith (Printf.sprintf "E19: enumerate decoder speedup %.2fx < 5x" s);
      let p24 = F.make_params ~beta:2 ~inv_eps_sq:12 48 in
      let correct = ref 0 in
      let (), csr24_s =
        Common.time (fun () ->
            Array.iter
              (fun inst ->
                let g = inst.F.graph in
                let d =
                  F.decode_enumerate ~graph:g p24
                    ~query:(fun s -> Cut.value g s)
                    inst.F.target ~t:inst.F.gh.Gap_hamming.t
                in
                if d = F.correct_decision inst then incr correct)
              (P.value pl insts24))
      in
      Printf.eprintf "  [E19 enumerate k=24: csr %.3fs for 3 decodes]\n%!"
        csr24_s;
      !correct)

(* (c1) registry: csr.* deltas around one frozen k=16 decode, measured
   inside the stage (serial, so nothing else is bumping the counters) and
   shipped in the artifact. *)
let counters_stage pl =
  let insts = P.forall_instances pl ~beta:1 ~d:16 ~n:32 ~trials:1 in
  Sched.stage (P.dag pl) ~name:"repr.counters" ~mode:Sched.Serial
    ~codec:(Sched.marshal_codec ())
    ~deps:[ Sched.dep insts ]
    (fun () ->
      let p = F.make_params ~beta:1 ~inv_eps_sq:16 32 in
      let inst = (P.value pl insts).(0) in
      (* Closed-form flip count of the subset walk, from the walk itself. *)
      let flips = ref 0 in
      F.iter_combinations_incremental ~n:16 ~k:8
        ~flip:(fun _ -> incr flips)
        ~visit:(fun _ -> ());
      let pb = Common.probe "csr.builds" in
      let pf = Common.probe "csr.cut_full" in
      let pd = Common.probe "csr.cut_delta" in
      let g = inst.F.graph in
      let _ =
        F.decode_enumerate ~graph:g p
          ~query:(fun s -> Cut.value g s)
          inst.F.target ~t:inst.F.gh.Gap_hamming.t
      in
      (!flips, Common.delta pb, Common.delta pf, Common.delta pd))

(* (c2) Karger sweep over the shared weighted graph. Artifact: the sweep
   counts; agreement is enforced in the stage. *)
let karger_stage pl =
  let graph = P.weighted_graph pl ~tag:"repr.karger" ~n:96 ~p:0.08 ~max_weight:8 in
  let name = "repr.karger" in
  Sched.stage (P.dag pl) ~name ~fingerprint:(P.fp_of name) ~mode:Sched.Serial
    ~codec:(Sched.marshal_codec ())
    ~deps:[ Sched.dep graph ]
    (fun () ->
      let g = P.value pl graph in
      let rng = P.seed_rng name in
      let trials = 64 in
      let cuts = Karger.candidate_cuts rng ~trials ~factor:4.0 g in
      (* Byte-identity: integer weights make both summation orders exact, so
         the CSR-evaluated repetition values equal hashtable recomputations
         bit for bit. *)
      if not (List.for_all (fun (v, c) -> v = Ugraph.cut_value g c) cuts) then
        failwith "E19: Karger cut values diverge between representations";
      (* Re-evaluation sweep, timed on both paths (stderr only). *)
      let reps = 400 in
      let csr = Csr.of_ugraph g in
      let (), ref_s =
        Common.time (fun () ->
            for _ = 1 to reps do
              List.iter (fun (_, c) -> ignore (Ugraph.cut_value g c)) cuts
            done)
      in
      let (), csr_s =
        Common.time (fun () ->
            for _ = 1 to reps do
              List.iter (fun (_, c) -> ignore (Csr.cut_value csr c)) cuts
            done)
      in
      Printf.eprintf
        "  [E19 karger eval sweep (%d cuts x %d): hashtable %.3fs, csr %.3fs, \
         %.1fx]\n\
         %!"
        (List.length cuts) reps ref_s csr_s (speedup ~ref_s ~csr_s);
      (Ugraph.n g, Ugraph.m g, trials, List.length cuts))

let plan ~floors pl =
  let battery = battery_stage pl ~floors in
  let enumerate = enumerate_stage pl ~floors in
  let counters = counters_stage pl in
  let karger = karger_stage pl in
  fun () ->
    Common.section "E19 Representation: frozen CSR vs hashtable adjacency";
    let t =
      Table.create
        ~title:
          "E4 decode battery, Lemma 4.4 enumerate: per-subset queries vs \
           frozen CSR"
        ~columns:
          [ "beta"; "1/eps^2"; "n"; "k"; "decodes"; "subsets/decode"; "decisions" ]
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
      (P.value pl battery);
    Table.print t;
    Common.note
      "decisions identical on every instance; aggregate speedup >= 2x enforced";
    Common.note
      "(wall-clock figures on stderr, excluded from the determinism diff).";
    print_newline ();
    let t =
      Table.create
        ~title:"enumerate decoder: 4-chain k=16 (both paths) and k=24 (CSR only)"
        ~columns:
          [ "beta"; "1/eps^2"; "n"; "k"; "decodes"; "subsets/decode"; "result" ]
    in
    Table.add_row t
      [ "1"; "16"; "64"; "16"; "8"; Table.fint (binom 16 8); "decisions identical" ];
    Table.add_row t
      [
        "2"; "12"; "48"; "24"; "3";
        Table.fint (binom 24 12);
        Printf.sprintf "csr only, correct %d/3" (P.value pl enumerate);
      ];
    Table.print t;
    Common.note "k = 24 was rejected by the pre-CSR guard (k > 20); the frozen";
    Common.note "path walks its 2.7M subsets with O(degree) flips.";
    print_newline ();
    let t =
      Common.checks [ "invariant" ]
        "csr.* registry vs expected (one frozen k=16 decode)"
    in
    let flips, d_builds, d_full, d_delta = P.value pl counters in
    Common.check t [ "csr.builds = 1 freeze per decode" ] ~expected:1
      ~registry:d_builds;
    Common.check t [ "csr.cut_full = 1 seed evaluation" ] ~expected:1
      ~registry:d_full;
    Common.check t [ "csr.cut_delta = subset-walk flips" ] ~expected:flips
      ~registry:d_delta;
    Common.print_checks t
      ~failure:"E19: csr registry disagrees with closed-form expectations";
    print_newline ();
    let t =
      Table.create
        ~title:"Karger repetition sweep: CSR cut values vs hashtable recomputation"
        ~columns:[ "n"; "edges"; "runs"; "distinct cuts"; "values" ]
    in
    let n, m, trials, distinct = P.value pl karger in
    Table.add_row t
      [
        Table.fint n; Table.fint m; Table.fint trials; Table.fint distinct;
        "byte-identical";
      ];
    Table.print t;
    Common.note "every repetition's value equals a from-scratch hashtable";
    Common.note "recomputation exactly (integer weights)."
