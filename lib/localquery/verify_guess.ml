module Prng = Dcs_util.Prng
module Ugraph = Dcs_graph.Ugraph

type outcome = {
  accepted : bool;
  estimate : float;
  edge_queries : int;
  sample_edges : int;
  p : float;
}

(* Accept iff the sample's estimate reaches this fraction of the guess. *)
let threshold = 0.5

let run ?(c0 = 2.0) rng oracle ~degrees ~t ~eps =
  if t <= 0.0 then invalid_arg "Verify_guess.run: t > 0";
  if eps <= 0.0 || eps > 1.0 then invalid_arg "Verify_guess.run: eps in (0,1]";
  Dcs_obs_core.Trace.with_span "verify_guess.run" @@ fun () ->
  let n = Oracle.n oracle in
  if Array.length degrees <> n then invalid_arg "Verify_guess.run: degrees length";
  let p = Float.min 1.0 (c0 *. log (float_of_int (max 2 n)) /. (eps *. eps *. t)) in
  let slot_p = if p >= 1.0 then 1.0 else p /. 2.0 in
  let h = Ugraph.create n in
  let queries = ref 0 in
  for u = 0 to n - 1 do
    for i = 0 to degrees.(u) - 1 do
      if slot_p >= 1.0 || Prng.bernoulli rng slot_p then begin
        incr queries;
        match Oracle.ith_neighbor oracle u i with
        | Some v when v <> u ->
            (* Full read keeps original unit weight; a sampled slot carries
               weight 1/p so each edge's expected sampled weight is 1. A
               full read visits each edge from both endpoints, so halve.
               (A lying oracle can answer [u] itself; a self-loop is
               observably absurd, so it is discarded like a ⊥.) *)
            let w = if p >= 1.0 then 0.5 else 1.0 /. p in
            Ugraph.add_edge h u v w
        | Some _ | None -> ()
      end
    done
  done;
  let estimate =
    if Ugraph.m h = 0 then 0.0
    else if not (Dcs_graph.Traversal.is_connected h) then 0.0
    else if n < 2 then 0.0
    else Dcs_mincut.Stoer_wagner.mincut_value h
  in
  {
    accepted = estimate >= threshold *. t;
    estimate;
    edge_queries = !queries;
    sample_edges = Ugraph.m h;
    p;
  }
