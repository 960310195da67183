module Prng = Dcs_util.Prng
module Metrics = Dcs_obs_core.Metrics
module Trace = Dcs_obs_core.Trace

let m_runs = Metrics.counter "estimator.runs"
let m_search_calls = Metrics.counter "estimator.search_calls"

type mode = Original | Modified

type result = {
  estimate : float;
  accepted : bool;
  degree_queries : int;
  edge_queries : int;
  total_queries : int;
  comm_bits : int;
  search_calls : int;
}

(* Search accuracy in [Modified] mode, and the safety margin of the
   confirming call. *)
let beta0 = 0.5
let c_margin = 4.0

let estimate ?(c0 = 2.0) rng oracle ~eps ~mode =
  if eps <= 0.0 || eps > 1.0 then invalid_arg "Estimator.estimate: eps in (0,1]";
  Trace.with_span "estimator.estimate" @@ fun () ->
  Metrics.inc m_runs;
  Oracle.reset oracle;
  let degrees = Array.init (Oracle.n oracle) (Oracle.degree oracle) in
  let min_degree =
    Array.fold_left (fun acc (d : int) -> if d < acc then d else acc) max_int degrees
  in
  (* k <= min degree: the singleton cut. Start the halving there. *)
  let search_eps = match mode with Original -> eps | Modified -> beta0 in
  let search_calls = ref 0 in
  let rec search t =
    if t < 1.0 then (* degenerate: accept the smallest guess *) 1.0
    else begin
      incr search_calls;
      let o = Verify_guess.run ~c0 rng oracle ~degrees ~t ~eps:search_eps in
      if o.Verify_guess.accepted then t else search (t /. 2.0)
    end
  in
  let t_accepted = search (float_of_int (max 1 min_degree)) in
  (* Safety margin before the confirming call: the accept could have
     happened anywhere below the reject threshold κ·k of the search
     accuracy. κ = Θ(ln n)/accuracy²; the ε-dependence is what separates
     the two modes. *)
  let margin =
    match mode with
    | Modified -> c_margin
    | Original -> c_margin /. (eps *. eps)
  in
  let t_final = Float.max 1.0 (t_accepted /. margin) in
  let final = Verify_guess.run ~c0 rng oracle ~degrees ~t:t_final ~eps in
  Metrics.inc ~by:!search_calls m_search_calls;
  let stats = Oracle.stats oracle in
  {
    estimate = final.Verify_guess.estimate;
    accepted = final.Verify_guess.accepted;
    degree_queries = stats.Oracle.degree_queries;
    edge_queries = stats.Oracle.edge_queries;
    total_queries = Oracle.total_queries oracle;
    comm_bits = Oracle.comm_bits oracle;
    search_calls = !search_calls;
  }
