module Ugraph = Dcs_graph.Ugraph
module Digraph = Dcs_graph.Digraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut
module Prng = Dcs_util.Prng
module Pool = Dcs_util.Pool
module Karger = Dcs_mincut.Karger
module Karger_stein = Dcs_mincut.Karger_stein
module Stoer_wagner = Dcs_mincut.Stoer_wagner
module Dinic = Dcs_mincut.Dinic
module Connectivity = Dcs_sketch.Connectivity
module Metrics = Dcs_obs_core.Metrics

(* Sparsify-then-solve (Cen–Li–Nanongkai et al., partial sparsification):
   run the minimum-cut solver on a connectivity-sampled sparsifier H —
   whose edge count is governed by the sampling rate ρ, not the source
   density — then *certify* the returned cut against the original graph:
   recompute its exact weight over the frozen CSR view and accept only if
   H's value for it is within the sparsifier's ε promise. On acceptance
   the answer is repaired to the exact weight (the cut is real; only its
   H-value was approximate); on violation — or when sampling left H
   unsolvable, e.g. disconnected — fall back to the dense solver on the
   original graph, so the fast path can never make the answer *wrong*,
   only certification make it slow. *)

let m_solves = Metrics.counter "partial.solves"
let m_certified = Metrics.counter "partial.certified"
let m_fallbacks = Metrics.counter "partial.fallbacks"

type solver =
  | Karger of { trials : int }
  | Karger_stein of { runs : int option }
  | Stoer_wagner

type stats = {
  m_full : int;
  m_sparse : int;
  conn : Connectivity.stats;
  sparse_value : float;
  certified : bool;
  fell_back : bool;
}

type result = { value : float; cut : Dcs_graph.Cut.t; stats : stats }

(* ρ is checked here, before estimation runs; cap by the estimator, at
   its entry. [not (x > 0.0)] also rejects NaN. *)
let check_rho rho =
  if not (rho > 0.0) then invalid_arg "Partial_mincut: rho must be positive"

let check_eps eps =
  if not (eps > 0.0 && eps < 1.0) then invalid_arg "Partial_mincut: eps in (0,1)"

(* Estimates saturate at the cap and p = ρ/λ̂, so the cap must exceed ρ
   for any edge to be dropped; the default lets keep probabilities fall
   to 1/16. *)
let default_cap ~rho cap = Option.value cap ~default:(16.0 *. rho)

(* A caller's estimates or frozen view must describe [g] itself — the
   same edges at the same weights — or certification would vouch for a
   cut of another graph. *)
let foreign what =
  invalid_arg (Printf.sprintf "Partial_mincut: %s does not describe the graph" what)

(* Matching edges make the estimates' view [g]'s own freeze as long as
   it is symmetric and has [g]'s vertex count: directed estimates of the
   same arcs hold one arc per edge. *)
let check_connectivity g conn =
  let n = Ugraph.n g and edges = Connectivity.edges conn in
  let own (u, v, w) = u < v && v < n && Ugraph.weight g u v = w in
  let view = Connectivity.view conn in
  if
    Array.length edges <> Ugraph.m g
    || Csr.n view <> n
    || Csr.m view <> 2 * Array.length edges
    || not (Array.for_all own edges)
  then foreign "connectivity"

let sparse_of ?cap ?domains ?flow_budget ?connectivity ~rho rng g =
  check_rho rho;
  let conn =
    match connectivity with
    | Some conn -> conn
    | None ->
        Connectivity.estimate_ugraph ?domains ?flow_budget
          ~cap:(default_cap ~rho cap) g
  in
  let h = Ugraph.create (Ugraph.n g) in
  Connectivity.sample conn ~rho rng (Ugraph.add_edge h);
  (h, conn)

let sparsify ?cap ?domains ?flow_budget ?connectivity ~rho rng g =
  Option.iter (check_connectivity g) connectivity;
  sparse_of ?cap ?domains ?flow_budget ?connectivity ~rho rng g

let solve_dense ?domains rng ~solver g =
  match solver with
  | Karger { trials } -> Karger.mincut ?domains rng ~trials g
  | Karger_stein { runs } -> Karger_stein.mincut ?domains ?runs rng g
  | Stoer_wagner -> Stoer_wagner.mincut g

(* The shared certify/repair step. [sparse] is the sparse answer as
   (H-value, cut, exact G-weight of the cut), or [None] when H was
   unsolvable. Accept iff |w_G(S) - w_H(S)| <= ε·w_G(S) — exactly the
   per-cut promise the sparsifier makes, checked on the one cut that
   matters — and report the exact weight; otherwise run [dense]. *)
let certify ~eps ~m_full ~m_sparse conn sparse ~dense =
  let stats sparse_value ~certified =
    {
      m_full;
      m_sparse;
      conn = Connectivity.stats conn;
      sparse_value;
      certified;
      fell_back = not certified;
    }
  in
  match sparse with
  | Some (sparse_value, cut, exact)
    when Float.abs (exact -. sparse_value) <= (eps *. exact) +. 1e-9 ->
      Metrics.inc m_certified;
      { value = exact; cut; stats = stats sparse_value ~certified:true }
  | _ ->
      Metrics.inc m_fallbacks;
      let value, cut = dense () in
      let sparse_value = match sparse with Some (v, _, _) -> v | None -> nan in
      { value; cut; stats = stats sparse_value ~certified:false }

let mincut ?domains ?cap ?flow_budget ?connectivity ?csr ~rho rng ~eps
    ~solver g =
  Metrics.inc m_solves;
  check_eps eps;
  Option.iter (check_connectivity g) connectivity;
  let h, conn = sparse_of ?cap ?domains ?flow_budget ?connectivity ~rho rng g in
  (* [conn] is the caller's checked estimates or the ones just computed:
     either way it carries [g]'s canonical edge list and [g]'s frozen
     view — certification reads that view, and one linear merge checks a
     caller's. *)
  let csr =
    match csr with
    | None -> Connectivity.view conn
    | Some c ->
        if not (Csr.is_view c ~n:(Ugraph.n g) ~symmetric:true (Connectivity.edges conn))
        then foreign "csr";
        c
  in
  let sparse_rng = Prng.fork rng in
  let fallback_rng = Prng.fork rng in
  let sparse =
    (* Sampling can disconnect H (binomial zero on a weak edge); the
       solvers reject that with [Invalid_argument], bare or, from a
       pooled trial, wrapped in [Pool.Task_failed]. The dense path
       answers. *)
    match solve_dense ?domains sparse_rng ~solver h with
    | exception
        (Invalid_argument _ | Pool.Task_failed { exn = Invalid_argument _; _ }) ->
        None
    | sparse_value, cut -> Some (sparse_value, cut, Csr.cut_value csr cut)
  in
  certify ~eps ~m_full:(Ugraph.m g) ~m_sparse:(Ugraph.m h) conn sparse
    ~dense:(fun () -> solve_dense ?domains fallback_rng ~solver g)

let st_mincut ?cap ?flow_budget ~rho rng ~eps ~beta ~s ~t:sink g =
  Metrics.inc m_solves;
  check_eps eps;
  check_rho rho;
  if s = sink then invalid_arg "Partial_mincut.st_mincut: s = t";
  let csr = Csr.of_digraph g in
  let conn =
    Connectivity.estimate_digraph ?flow_budget ~csr ~beta
      ~cap:(default_cap ~rho cap) g
  in
  let h = Digraph.create (Digraph.n g) in
  Connectivity.sample conn ~rho rng (Digraph.add_edge h);
  let sparse_value, side = Dinic.mincut_side (Dinic.of_digraph h) ~s ~t:sink in
  certify ~eps ~m_full:(Digraph.m g) ~m_sparse:(Digraph.m h) conn
    (Some (sparse_value, side, Csr.cut_value csr side))
    ~dense:(fun () -> Dinic.mincut_side (Dinic.of_csr csr) ~s ~t:sink)
