module Ugraph = Dcs_graph.Ugraph
module Digraph = Dcs_graph.Digraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut
module Prng = Dcs_util.Prng
module Karger = Dcs_mincut.Karger
module Karger_stein = Dcs_mincut.Karger_stein
module Stoer_wagner = Dcs_mincut.Stoer_wagner
module Dinic = Dcs_mincut.Dinic
module Connectivity = Dcs_sketch.Connectivity
module Importance = Dcs_sketch.Importance
module Directed_sparsifier = Dcs_sketch.Directed_sparsifier
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

(* Undirected sampling rate: connectivity sampling of undirected graphs
   needs only the Benczúr–Karger-shaped O(log n/ε²) rate (no balance
   factor) — sampling by exact local connectivity at this rate preserves
   all cuts within (1 ± ε) w.h.p. (Fung–Hariharan–Harvey–Panigrahi). *)
let rho_ugraph ?(c = 2.0) ~eps ~n () =
  if eps <= 0.0 || eps >= 1.0 then invalid_arg "Partial_mincut: eps in (0,1)";
  c *. log (float_of_int (max 2 n)) /. (eps *. eps)

let sparsify ?c ?rho:rho_opt ?cap ?domains ?flow_budget ?connectivity
    rng ~eps g =
  let n = Ugraph.n g in
  let rho =
    match rho_opt with
    | Some r ->
        if r <= 0.0 then invalid_arg "Partial_mincut: rho must be positive";
        r
    | None -> rho_ugraph ?c ~eps ~n ()
  in
  let conn =
    match connectivity with
    | Some conn -> conn
    | None ->
        (* Estimates saturate at the cap and p = ρ/λ̂, so the cap must
           exceed ρ for any edge to be dropped; the default lets keep
           probabilities fall to 1/16. *)
        let cap = match cap with Some k -> k | None -> 16.0 *. rho in
        Connectivity.estimate_ugraph ?domains ?flow_budget ~cap g
  in
  let master = Prng.fork rng in
  let h = Ugraph.create n in
  Array.iteri
    (fun i (u, v, w) ->
      let lam = Connectivity.lambda_at conn i in
      let p = if lam <= 0.0 then 1.0 else rho /. lam in
      match Importance.binomial_keep (Prng.split master i) ~p ~w with
      | Some w' -> Ugraph.add_edge h u v w'
      | None -> ())
    (Connectivity.edges conn);
  (h, conn)

let solve_dense ?domains rng ~solver g =
  match solver with
  | Karger { trials } -> Karger.mincut ?domains rng ~trials g
  | Karger_stein { runs } -> Karger_stein.mincut ?domains ?runs rng g
  | Stoer_wagner -> Stoer_wagner.mincut g

(* |w_G(S) - w_H(S)| <= ε·w_G(S): exactly the per-cut promise the
   sparsifier makes, checked on the one cut that matters. *)
let certifies ~eps ~exact ~sparse =
  Float.abs (exact -. sparse) <= (eps *. exact) +. 1e-9

let mincut ?domains ?c ?rho ?cap ?flow_budget ?connectivity ?csr rng
    ~eps ~solver g =
  Metrics.inc m_solves;
  let csr = match csr with Some c -> c | None -> Csr.of_ugraph g in
  let h, conn =
    sparsify ?c ?rho ?cap ?domains ?flow_budget ?connectivity rng ~eps g
  in
  let sparse_rng = Prng.fork rng in
  let fallback_rng = Prng.fork rng in
  let stats ~sparse_value ~certified ~fell_back =
    {
      m_full = Ugraph.m g;
      m_sparse = Ugraph.m h;
      conn = Connectivity.stats conn;
      sparse_value;
      certified;
      fell_back;
    }
  in
  let fall_back ~sparse_value =
    Metrics.inc m_fallbacks;
    let value, cut = solve_dense ?domains fallback_rng ~solver g in
    { value; cut; stats = stats ~sparse_value ~certified:false ~fell_back:true }
  in
  match solve_dense ?domains sparse_rng ~solver h with
  | exception Invalid_argument _ ->
      (* Sampling can disconnect H (binomial zero on a weak edge); the
         dense path answers. *)
      fall_back ~sparse_value:nan
  | sparse_value, cut ->
      let exact = Csr.cut_value csr cut in
      if certifies ~eps ~exact ~sparse:sparse_value then begin
        Metrics.inc m_certified;
        {
          value = exact;
          cut;
          stats = stats ~sparse_value ~certified:true ~fell_back:false;
        }
      end
      else fall_back ~sparse_value

let st_mincut ?c ?rho:rho_opt ?cap ?domains ?flow_budget ?connectivity
    rng ~eps ~beta ~s ~t:sink g =
  Metrics.inc m_solves;
  let n = Digraph.n g in
  if s = sink then invalid_arg "Partial_mincut.st_mincut: s = t";
  let csr = Csr.of_digraph g in
  let rho =
    match rho_opt with
    | Some r -> r
    | None -> Directed_sparsifier.rho ?c ~eps ~beta ~n ()
  in
  let conn =
    match connectivity with
    | Some conn -> conn
    | None ->
        let cap = match cap with Some k -> k | None -> 16.0 *. rho in
        Connectivity.estimate_digraph ?domains ?flow_budget ~csr ~beta
          ~cap g
  in
  let h =
    Directed_sparsifier.connectivity_sparsify ~rho ~connectivity:conn rng ~eps
      ~beta g
  in
  let stats ~sparse_value ~certified ~fell_back =
    {
      m_full = Digraph.m g;
      m_sparse = Digraph.m h;
      conn = Connectivity.stats conn;
      sparse_value;
      certified;
      fell_back;
    }
  in
  let sparse_value, side = Dinic.mincut_side (Dinic.of_digraph h) ~s ~t:sink in
  let exact = Csr.cut_weight csr (Cut.mem side) in
  if certifies ~eps ~exact ~sparse:sparse_value then begin
    Metrics.inc m_certified;
    {
      value = exact;
      cut = side;
      stats = stats ~sparse_value ~certified:true ~fell_back:false;
    }
  end
  else begin
    Metrics.inc m_fallbacks;
    let value, cut = Dinic.mincut_side (Dinic.of_csr csr) ~s ~t:sink in
    { value; cut; stats = stats ~sparse_value ~certified:false ~fell_back:true }
  end
