(* E24 — Sparsify-then-solve: connectivity sampling + partial min-cut.

   The upper-bound counterpart of the serving/sketching experiments:
   instead of answering cut queries from a sketch, shrink the graph with
   connectivity-based importance sampling (CCPS21's compress — p =
   min(1, ρ/λ̂) with λ̂ the Dcs.Connectivity tier-chain estimates) and run
   the min-cut solver on the sparsifier, certifying the returned cut
   against the original graph (Dcs.Partial_mincut). Three stages:

   - quality: on the E13 instance family (balanced digraphs, n = 120,
     dense weighted), the connectivity sampler must beat the E12/E13
     strength-based for-all sampler's worst sampled-cut error at a
     matched sketch size — ρ is bisected on [expected_kept] until the
     expected kept-edge count sits at 93% of the strength sampler's
     realized count, and the floor demands both fewer kept edges AND a
     strictly smaller worst error over the same 30 random cuts. Enforced
     in the report closure, so warm (cached) runs re-verify it.

   - speed: end-to-end sparsify-then-solve (tier-chain estimates, whose
     maximum-adjacency tier certifies the in-block edges -> binomial
     resampling -> Karger on the sparsifier -> certify against the frozen
     CSR) vs the dense solver at the same trial count, both timed at one
     domain, on a planted two-block instance (n = 1000, ~150k weighted
     edges, two cross edges).
     Floor: >= 3x wall-clock, enforced
     inside the stage on every cold run — an anti-regression floor sized
     for 1-core hosts (measured ~4x; the speedup is algorithmic, edges
     solved shrink ~6.6x, so it does not depend on parallelism). The
     planted cut's edges have lambda-hat below rho, so they ride through
     sampling at p = 1 and certification holds by construction (see the
     s_* comment below). Figures go to stderr; the artifact carries
     only deterministic values, so the table is byte-identical across
     DCS_DOMAINS and warm/cold cache runs. The sparse pipeline is also
     re-run at explicit domain counts 1/2/4 and its (value, cut, kept
     edges, certification) must be identical — scheduling must leak into
     nothing.

   - drivers: every solver routed through the certify/repair layer —
     Karger, Karger–Stein, Stoer–Wagner on an undirected instance, plus
     the directed s–t Dinic driver — and a forced-fallback row at an
     absurdly small ρ whose repaired answer must equal the dense one
     exactly (the fast path can make the answer slower, never wrong).

   All three stages are [Serial]: they spawn their own [Pool.run_batched]
   fan-outs (capped max-flows, Karger trials) and the speed stage
   measures wall clock. *)

open Dcs
module P = Pipelines

(* --- quality: connectivity vs strength sampling at matched size --- *)

(* beta >= 2: the floor targets the directed-balance regime. At beta = 1
   the balanced generator is near-symmetric, the (1+beta) division
   flattens lambda-hat into a near-uniform measure, and connectivity
   sampling has no heterogeneity left to exploit — the strength baseline
   wins that corner at every sketch size we tried. eps = 0.3 keeps the
   matched budgets out of the starvation regime (a few hundred edges)
   where the worst-of-30-cuts comparison is a seed lottery. *)
let q_eps = 0.3
let q_betas = [ 2.0; 4.0; 8.0 ]
let q_n = 120

(* Estimation ceiling, exact-flow budget and NI rounds for the quality
   instances: dense n = 120 graphs have local connectivities in the
   thousands, so the ceiling sits high and the flow tier gets a real
   budget (the triangle tier resolves most edges; the flows sharpen the
   weakest bounds). *)
let q_cap = 1500.0
let q_flow_budget = 300
let q_rounds = 128
let q_match = 0.93

(* Bisect ρ until the expected kept-edge count of the connectivity
   sampler sits at [q_match] of the strength sampler's realized count —
   the matched-budget comparison: monotone, so 50 halvings pin it. *)
let match_rho ~target conn =
  let lo = ref 0.01 and hi = ref q_cap in
  for _ = 1 to 50 do
    let mid = 0.5 *. (!lo +. !hi) in
    if Connectivity.expected_kept conn ~rho:mid > target then hi := mid
    else lo := mid
  done;
  !lo

let worst_cut_error ~cuts g h =
  List.fold_left
    (fun acc c ->
      let truth = Cut.value g c in
      if truth > 0.0 then
        Float.max acc (Float.abs (Cut.value h c -. truth) /. truth)
      else acc)
    0.0 cuts

(* Artifact: (beta, m, kept_b, err_b, kept_c, err_c, rho, flows run). *)
let quality_stage pl beta =
  let tag = Printf.sprintf "sparsolve.b%g" beta in
  let graph =
    P.balanced_digraph pl ~tag ~n:q_n ~p:0.8 ~beta ~max_weight:30.0
  in
  let csr = P.digraph_csr pl ~tag graph in
  let strengths = P.projection_strengths pl ~tag ~rounds:q_rounds graph in
  let name = Printf.sprintf "sparsolve.quality b%g" beta in
  Sched.stage (P.dag pl) ~name ~fingerprint:(P.fp_of name) ~mode:Sched.Serial
    ~codec:(Sched.marshal_codec ())
    ~deps:[ Sched.dep graph; Sched.dep csr; Sched.dep strengths ]
    (fun () ->
      let g = P.value pl graph in
      let frozen = P.value pl csr in
      let str = P.value pl strengths in
      (* Baseline: the E12/E13 strength-based for-all sampler, at the E13
         recipe (c = 0.5). *)
      let b =
        Directed_sparsifier.forall_sparsify ~c:0.5
          (P.seed_rng (name ^ ".base"))
          ~eps:q_eps ~beta g
      in
      let kept_b = Digraph.m b in
      let conn =
        Connectivity.estimate_digraph ~csr:frozen ~strengths:str ~beta
          ~cap:q_cap ~flow_budget:q_flow_budget g
      in
      let rho = match_rho ~target:(float_of_int kept_b *. q_match) conn in
      let h = Digraph.create (Digraph.n g) in
      Connectivity.sample conn ~rho (P.seed_rng (name ^ ".conn"))
        (Digraph.add_edge h);
      let cuts =
        let crng = P.seed_rng (name ^ ".cuts") in
        List.init 30 (fun _ -> Cut.random crng ~n:q_n)
      in
      let err_b = worst_cut_error ~cuts g b in
      let err_c = worst_cut_error ~cuts g h in
      ( beta,
        Digraph.m g,
        kept_b,
        err_b,
        Digraph.m h,
        err_c,
        rho,
        (Connectivity.stats conn).Connectivity.flows ))

(* --- speed: end-to-end sparsify-then-solve vs the dense solver --- *)

(* The instance is two dense blocks (n = 1000, ~150k weighted edges)
   joined by [s_k] light cross edges — the heterogeneous-connectivity
   regime connectivity sampling targets. In-block edges have local
   connectivity in the thousands (weighted degrees ~900-1200 >= the cap, so
   the maximum-adjacency tier runs and certifies them at the cap in three
   linear passes), so they are downsampled ~6x; the planted cut's edges have
   λ̂ <= s_k·max_weight < ρ, so p = 1 and the minimum cut survives in H
   with its weight *exact* — certification then passes by construction
   rather than by seed luck. (On a homogeneous ER instance every cut is
   strong and equally downsampled; Karger on H returns the most
   *under*estimated cut — selection bias — with |exact - sparse|/exact
   around sqrt(ln n_cuts/ρ) ≈ 0.5 at ρ = 14, and certification thrashes
   into the dense fallback.) *)
let s_trials = 144
let s_eps = 0.4
let s_rho = 14.0
let s_cap = 300.0
let s_flow_budget = 32
let s_block = 500
let s_k = 2

(* Wall seconds inside [name] spans while [f] runs: span aggregation is
   switched on for the call (and left as it was found), and the span's
   total is read before and after. *)
let span_seconds name f =
  let total () =
    List.fold_left
      (fun acc (st : Obs.Trace.stat) ->
        if st.name = name then acc +. st.total_s else acc)
      0.0 (Obs.Trace.stats ())
  in
  let was_tracing = Obs.Trace.enabled () in
  Obs.Trace.enable ();
  let before = total () in
  let r =
    Fun.protect
      ~finally:(fun () -> if not was_tracing then Obs.Trace.disable ())
      f
  in
  (r, total () -. before)

(* The whole sparse pipeline, end to end — tier-chain estimation (its
   maximum-adjacency tier certifies the in-block edges, so no NI rounds
   run), binomial resampling, Karger on the sparsifier, certify against
   the frozen view — everything the dense side does not pay. Returns the
   result and the wall time of each phase (the maximum-adjacency
   contraction inside the estimator, the rest of the estimator, partial
   min-cut), so the floor can name the layer that grew. *)
let sparse_pipeline ?domains rng g =
  let (conn, t_ma), t_conn =
    Common.time (fun () ->
        span_seconds "conn.adjacency" (fun () ->
            Connectivity.estimate_ugraph ?domains ~flow_budget:s_flow_budget
              ~cap:s_cap g))
  in
  let r, t_solve =
    Common.time (fun () ->
        Partial_mincut.mincut ?domains ~rho:s_rho ~connectivity:conn rng
          ~eps:s_eps ~solver:(Partial_mincut.Karger { trials = s_trials }) g)
  in
  (r, (t_ma, t_conn -. t_ma, t_solve))

let enforce_speed_floor ~dense_s ~sparse_s ~phases:(t_ma, t_rest, t_solve)
    ~conn ~m ~m' =
  let sp = dense_s /. Float.max sparse_s 1e-9 in
  Printf.eprintf
    "  [E24 speed n=1000: dense %.3fs, sparse %.3fs end-to-end \
     (max-adjacency %d passes, %d edges at cap, %.3fs; rest of \
     connectivity %.3fs; partial min-cut %.3fs), %.2fx, edges %d -> %d, \
     %d cores]\n\
     %!"
    dense_s sparse_s conn.Connectivity.passes conn.Connectivity.by_adjacency
    t_ma t_rest t_solve sp m m' Common.cores;
  if sp < 3.0 then
    failwith
      (Printf.sprintf
         "E24: sparsify-then-solve %.2fx < 3x vs dense Karger (%d trials, %d \
          cores) — anti-regression floor"
         sp s_trials Common.cores)

(* Artifact: (n, m, trials, dense value, result fields, m', flows,
   identical across explicit domain counts). Wall clock stays on
   stderr. *)
let speed_stage pl =
  let graph =
    P.planted_graph pl ~tag:"sparsolve.speed" ~block:s_block ~k:s_k
      ~p_inner:0.6 ~max_weight:6
  in
  let name = "sparsolve.speed" in
  Sched.stage (P.dag pl) ~name ~fingerprint:(P.fp_of name) ~mode:Sched.Serial
    ~codec:(Sched.marshal_codec ())
    ~deps:[ Sched.dep graph ]
    (fun () ->
      let g = P.value pl graph in
      let seed = P.seed_rng name in
      (* Both sides at one domain: Karger's trials split across domains
         and the sparse pipeline's strength, sampling and certify steps do
         not, so an ambient domain count would skew the ratio. *)
      let (dense_v, dense_cut), dense_s =
        Common.time (fun () ->
            Karger.mincut ~domains:1 (Prng.copy seed) ~trials:s_trials g)
      in
      ignore dense_cut;
      let sparse_seed = P.seed_rng (name ^ ".sparse") in
      let (r, phases), sparse_s =
        Common.time (fun () ->
            sparse_pipeline ~domains:1 (Prng.copy sparse_seed) g)
      in
      enforce_speed_floor ~dense_s ~sparse_s ~phases
        ~conn:r.Partial_mincut.stats.Partial_mincut.conn ~m:(Ugraph.m g)
        ~m':r.Partial_mincut.stats.Partial_mincut.m_sparse;
      (* Scheduling must leak into nothing: the same pipeline at explicit
         domain counts returns the identical cut. *)
      let identical =
        List.for_all
          (fun dom ->
            let r', _ = sparse_pipeline ~domains:dom (Prng.copy sparse_seed) g in
            r'.Partial_mincut.value = r.Partial_mincut.value
            && Cut.equal r'.Partial_mincut.cut r.Partial_mincut.cut
            && r'.Partial_mincut.stats.Partial_mincut.m_sparse
               = r.Partial_mincut.stats.Partial_mincut.m_sparse
            && r'.Partial_mincut.stats.Partial_mincut.certified
               = r.Partial_mincut.stats.Partial_mincut.certified)
          Common.domain_grid
      in
      if not identical then
        failwith "E24: sparse pipeline diverges across explicit domain counts";
      let st = r.Partial_mincut.stats in
      ( Ugraph.n g,
        Ugraph.m g,
        s_trials,
        dense_v,
        r.Partial_mincut.value,
        st.Partial_mincut.certified,
        st.Partial_mincut.fell_back,
        st.Partial_mincut.m_sparse,
        st.Partial_mincut.conn.Connectivity.flows ))

(* --- drivers: every solver through certify/repair --- *)

let d_eps = 0.4
let d_rho = 12.0
let d_cap = 120.0
let d_flow_budget = 64

(* Artifact rows: (label, m', value, sparse_value, certified, fell_back)
   plus the dense Stoer–Wagner reference value. *)
let drivers_stage pl =
  (* Small on purpose: this stage checks routing and the certify/repair
     contract, not scale (E24's speed stage prices the solvers). *)
  let graph =
    P.weighted_graph pl ~tag:"sparsolve.drivers" ~n:150 ~p:0.16 ~max_weight:6
  in
  let dgraph =
    P.balanced_digraph pl ~tag:"sparsolve.st" ~n:160 ~p:0.3 ~beta:2.0
      ~max_weight:8.0
  in
  let name = "sparsolve.drivers" in
  Sched.stage (P.dag pl) ~name ~fingerprint:(P.fp_of name) ~mode:Sched.Serial
    ~codec:(Sched.marshal_codec ())
    ~deps:[ Sched.dep graph; Sched.dep dgraph ]
    (fun () ->
      let g = P.value pl graph in
      let exact, _ = Stoer_wagner.mincut g in
      let run label solver =
        let r =
          Partial_mincut.mincut ~rho:d_rho ~cap:d_cap
            ~flow_budget:d_flow_budget
            (P.seed_rng (name ^ "." ^ label))
            ~eps:d_eps ~solver g
        in
        let st = r.Partial_mincut.stats in
        (* Repair invariant: the reported value is an exact cut weight of
           the original graph, so it can never undercut the minimum. *)
        if r.Partial_mincut.value < exact -. 1e-9 then
          failwith (Printf.sprintf "E24: %s reported below the min cut" label);
        ( label,
          st.Partial_mincut.m_sparse,
          r.Partial_mincut.value,
          st.Partial_mincut.sparse_value,
          st.Partial_mincut.certified,
          st.Partial_mincut.fell_back )
      in
      let rows =
        [
          run "karger" (Partial_mincut.Karger { trials = 200 });
          run "karger-stein" (Partial_mincut.Karger_stein { runs = Some 2 });
          run "stoer-wagner" Partial_mincut.Stoer_wagner;
        ]
      in
      (* Forced fallback: ρ so small the sparsifier guts the graph; the
         certifier must catch it and the repaired answer equals the dense
         one exactly. *)
      let forced =
        let r =
          Partial_mincut.mincut ~rho:0.05 ~cap:1.0
            (P.seed_rng (name ^ ".forced"))
            ~eps:d_eps ~solver:Partial_mincut.Stoer_wagner g
        in
        if not r.Partial_mincut.stats.Partial_mincut.fell_back then
          failwith "E24: rho = 0.05 sparsifier escaped the certifier";
        if Float.abs (r.Partial_mincut.value -. exact) > 1e-9 then
          failwith "E24: fallback value differs from the dense solver";
        let st = r.Partial_mincut.stats in
        ( "stoer-wagner rho=0.05",
          st.Partial_mincut.m_sparse,
          r.Partial_mincut.value,
          st.Partial_mincut.sparse_value,
          st.Partial_mincut.certified,
          st.Partial_mincut.fell_back )
      in
      (* Directed s–t min-cut through the CCPS21 sampler + Dinic. *)
      let dg = P.value pl dgraph in
      let dn = Digraph.n dg in
      let dense_st = Dinic.maxflow (Dinic.of_digraph dg) ~s:0 ~t:(dn - 1) in
      let st_row =
        let r =
          Partial_mincut.st_mincut ~rho:20.0 ~cap:300.0 ~flow_budget:200
            (P.seed_rng (name ^ ".st"))
            ~eps:0.5 ~beta:2.0 ~s:0 ~t:(dn - 1) dg
        in
        if r.Partial_mincut.value < dense_st -. 1e-9 then
          failwith "E24: st driver reported below the s-t min cut";
        let st = r.Partial_mincut.stats in
        ( "st-dinic (directed)",
          st.Partial_mincut.m_sparse,
          r.Partial_mincut.value,
          st.Partial_mincut.sparse_value,
          st.Partial_mincut.certified,
          st.Partial_mincut.fell_back )
      in
      (Ugraph.m g, exact, rows @ [ forced ], Digraph.m dg, dense_st, st_row))

(* --- report --- *)

let plan pl =
  let quality = List.map (fun b -> quality_stage pl b) q_betas in
  let speed = speed_stage pl in
  let drivers = drivers_stage pl in
  fun () ->
    Common.section
      "E24 Sparsify-then-solve: connectivity sampling + partial min-cut";
    let t =
      Table.create
        ~title:
          (Printf.sprintf
             "connectivity vs strength sampling at matched size (E13 family, \
              n=%d, eps=%.1f, %d cuts)"
             q_n q_eps 30)
        ~columns:
          [
            "beta"; "m"; "kept (strength)"; "worst err"; "kept (conn)";
            "worst err"; "rho"; "flows";
          ]
    in
    List.iter
      (fun node ->
        let beta, m, kept_b, err_b, kept_c, err_c, rho, flows =
          P.value pl node
        in
        (* The matched-size floor, re-verified from the artifact on every
           run, warm or cold: strictly better worst-cut error on a sketch
           that is no larger. *)
        if kept_c > kept_b then
          failwith
            (Printf.sprintf "E24: beta=%g conn sampler kept %d > %d edges" beta
               kept_c kept_b);
        if err_c >= err_b then
          failwith
            (Printf.sprintf
               "E24: beta=%g worst cut error %.4f not better than the \
                strength sampler's %.4f at matched size"
               beta err_c err_b);
        Table.add_row t
          [
            Printf.sprintf "%g" beta;
            Table.fint m;
            Table.fint kept_b;
            Table.fpct err_b;
            Table.fint kept_c;
            Table.fpct err_c;
            Table.ffloat ~digits:1 rho;
            Table.fint flows;
          ])
      quality;
    Table.print t;
    Common.note
      "same instance family and sampler recipe as E13 (strength-based for-all,";
    Common.note
      "c=0.5); the connectivity sampler must keep fewer edges AND have strictly";
    Common.note
      "smaller worst sampled-cut error — sharper lambda on tree edges inside";
    Common.note
      "dense regions, plus binomial weight resampling (variance w(1-p)/p^2 vs";
    Common.note "w^2(1-p)/p whole-edge) are where the win comes from (cf. E12).";
    print_newline ();
    let n, m, trials, dense_v, value, certified, fell_back, m', flows =
      P.value pl speed
    in
    let t =
      Table.create
        ~title:"end-to-end min-cut: dense Karger vs sparsify-then-solve"
        ~columns:
          [
            "n"; "edges"; "solved edges"; "trials"; "dense value"; "value";
            "certified"; "fell back"; "flows"; "d=1/2/4";
          ]
    in
    Table.add_row t
      [
        Table.fint n;
        Table.fint m;
        Table.fint m';
        Table.fint trials;
        Printf.sprintf "%g" dense_v;
        Printf.sprintf "%g" value;
        Table.fbool certified;
        Table.fbool fell_back;
        Table.fint flows;
        "identical";
      ];
    Table.print t;
    Common.note
      "floor: sparse pipeline (tier-chain estimates + binomial resampling +";
    Common.note
      "Karger + certify) >= 3x faster end-to-end than the dense";
    Common.note
      "solver at the same trial count — enforced on every cold run; the";
    Common.note
      "speedup is algorithmic (~6.6x fewer edges solved), so the floor holds";
    Common.note
      "on 1-core hosts. The instance is two dense blocks + 2 cross edges: the";
    Common.note
      "planted cut's lambda-hat sits below rho, so sampling keeps it exactly";
    Common.note
      "(p=1) and certification passes by construction; maximum-adjacency";
    Common.note
      "contraction certifies the in-block edges at the cap (no NI rounds run),";
    Common.note "and they carry the ~6.6x edge reduction.";
    Common.note "Wall-clock figures on stderr only.";
    print_newline ();
    let um, exact, rows, dm, dense_st, st_row = P.value pl drivers in
    let t =
      Table.create
        ~title:
          (Printf.sprintf
             "certify/repair drivers (undirected n=150 m=%d, SW exact %g; \
              directed n=160 m=%d, s-t flow %g)"
             um exact dm dense_st)
        ~columns:
          [
            "solver"; "solved edges"; "value"; "sparse value"; "certified";
            "fell back";
          ]
    in
    List.iter
      (fun (label, m', value, sparse_v, certified, fell_back) ->
        Table.add_row t
          [
            label;
            Table.fint m';
            Printf.sprintf "%g" value;
            (if Float.is_nan sparse_v then "-" else Printf.sprintf "%g" sparse_v);
            Table.fbool certified;
            Table.fbool fell_back;
          ])
      (rows @ [ st_row ]);
    Table.print t;
    Common.note
      "reported values are exact cut weights of the original graph (repair);";
    Common.note
      "the rho=0.05 row is the forced-violation path: the certifier rejects";
    Common.note
      "the gutted sparsifier and the dense rerun answers — slower, never wrong."
