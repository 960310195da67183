module Ugraph = Dcs_graph.Ugraph
module Fault = Dcs_util.Fault
module Retry = Dcs_util.Retry
module Metrics = Dcs_obs_core.Metrics

(* Registry mirrors of the per-oracle meters: bumped exactly when a query
   is paid for (memoized repeats stay free), so the registry total always
   equals the sum of [total_queries] over all oracle instances — E18
   asserts this. *)
let m_degree = Metrics.counter "oracle.degree_queries"
let m_edge = Metrics.counter "oracle.edge_queries"
let m_adjacency = Metrics.counter "oracle.adjacency_queries"
let m_retries = Metrics.counter "oracle.retries"
let m_votes = Metrics.counter "oracle.votes_cast"
let m_retry_hist = Metrics.histogram ~buckets:8 "oracle.retry_attempts"
let m_vote_hist = Metrics.histogram ~buckets:8 "oracle.votes_per_query"

exception Exhausted of string

(* Attempts per vote under a fault injector. *)
let retry_budget = 8

type t = {
  graph : Ugraph.t;
  neighbors : int array array;  (* sorted adjacency, fixes the i-th ordering *)
  memoize : bool;
  seen_degree : (int * int, unit) Hashtbl.t;
  seen_edge : (int * int, unit) Hashtbl.t;
  seen_adj : (int * int, unit) Hashtbl.t;
  fault : Fault.t option;
  vote_k : int;
  mutable degree_q : int;
  mutable edge_q : int;
  mutable adj_q : int;
  mutable retries : int;
  mutable votes_cast : int;
  mutable backoff_units : int;
}

let create ?(memoize = false) ?fault ?vote_k g =
  let vote_k =
    match (fault, vote_k) with
    | None, Some _ -> invalid_arg "Oracle.create: vote_k needs a fault injector"
    | _, Some k -> if k >= 1 then k else invalid_arg "Oracle.create: vote_k must be >= 1"
    | Some f, None -> if (Fault.policy_of f).Fault.lie_rate > 0.0 then 3 else 1
    | None, None -> 1
  in
  {
    graph = g;
    neighbors = Array.init (Ugraph.n g) (fun u -> Ugraph.neighbor_array g u);
    memoize;
    seen_degree = Hashtbl.create 64;
    seen_edge = Hashtbl.create 256;
    seen_adj = Hashtbl.create 64;
    fault;
    vote_k;
    degree_q = 0;
    edge_q = 0;
    adj_q = 0;
    retries = 0;
    votes_cast = 0;
    backoff_units = 0;
  }

(* Under memoization a repeated query is answered from the algorithm's own
   notes and costs nothing; only first-time queries hit the meter. *)
let pay_once t table key bump =
  if t.memoize then begin
    if not (Hashtbl.mem table key) then begin
      Hashtbl.replace table key ();
      bump ()
    end
  end
  else bump ()

let n t = Ugraph.n t.graph

let check_vertex t u =
  if u < 0 || u >= n t then invalid_arg "Oracle: vertex out of range"

(* The metered answers. *)

let true_degree t u =
  check_vertex t u;
  pay_once t t.seen_degree (u, u) (fun () ->
      t.degree_q <- t.degree_q + 1;
      Metrics.inc m_degree);
  Array.length t.neighbors.(u)

let true_neighbor t u i =
  check_vertex t u;
  if i < 0 then invalid_arg "Oracle.ith_neighbor: negative index";
  pay_once t t.seen_edge (u, i) (fun () ->
      t.edge_q <- t.edge_q + 1;
      Metrics.inc m_edge);
  if i < Array.length t.neighbors.(u) then Some t.neighbors.(u).(i) else None

let true_adjacent t u v =
  check_vertex t u;
  check_vertex t v;
  let key = if u < v then (u, v) else (v, u) in
  pay_once t t.seen_adj key (fun () ->
      t.adj_q <- t.adj_q + 1;
      Metrics.inc m_adjacency);
  Ugraph.mem_edge t.graph u v

(* Fabricated answers draw from the fault stream, never the caller's rng,
   and are guaranteed wrong (when the domain has room to be wrong). *)

let lie_degree t fault honest =
  let n = n t in
  if n < 2 then honest
  else
    let r = Fault.draw_int fault (n - 1) in
    if r >= honest then r + 1 else r

let lie_neighbor t fault honest =
  let n = n t in
  match honest with
  | None -> Some (Fault.draw_int fault n)
  | Some v ->
      (* n wrong answers: the n-1 other vertices, or ⊥. *)
      let r = Fault.draw_int fault n in
      if r = v then None else Some r

(* Recovery under a fault injector: a [vote_k]-way majority of votes, each
   retrying up to [retry_budget] attempts on timeouts. An attempt makes
   the metered [query] first and only then draws a timeout, then a lie —
   a timed-out query was still paid for. A vote whose every attempt timed
   out abstains, and a query where every vote abstains raises. *)
let robust t fault ~name query lie =
  let attempt ~attempt:_ =
    let a = query () in
    if Fault.times_out fault then None
    else if Fault.lies fault then Some (lie fault a)
    else Some a
  in
  let winner =
    Retry.majority ~k:t.vote_k (fun _ ->
        t.votes_cast <- t.votes_cast + 1;
        Metrics.inc m_votes;
        let out = Retry.with_budget ~budget:retry_budget attempt in
        t.retries <- t.retries + (out.Retry.attempts - 1);
        t.backoff_units <- t.backoff_units + out.Retry.backoff_units;
        Metrics.inc ~by:(out.Retry.attempts - 1) m_retries;
        Metrics.observe m_retry_hist out.Retry.attempts;
        out.Retry.value)
  in
  Metrics.observe m_vote_hist t.vote_k;
  match winner with
  | Some (v, _) -> v
  | None ->
      raise
        (Exhausted
           (Printf.sprintf
              "Oracle.%s: all %d vote(s) exhausted their retry budget of %d" name
              t.vote_k retry_budget))

let degree t u =
  match t.fault with
  | None -> true_degree t u
  | Some f ->
      robust t f ~name:"degree" (fun () -> true_degree t u) (lie_degree t)

let ith_neighbor t u i =
  match t.fault with
  | None -> true_neighbor t u i
  | Some f ->
      robust t f ~name:"ith_neighbor"
        (fun () -> true_neighbor t u i)
        (lie_neighbor t)

let adjacent t u v =
  match t.fault with
  | None -> true_adjacent t u v
  | Some f ->
      robust t f ~name:"adjacent" (fun () -> true_adjacent t u v) (fun _ a -> not a)

type stats = {
  degree_queries : int;
  edge_queries : int;
  adjacency_queries : int;
  retries : int;
  votes_cast : int;
  backoff_units : int;
}

let stats (t : t) =
  {
    degree_queries = t.degree_q;
    edge_queries = t.edge_q;
    adjacency_queries = t.adj_q;
    retries = t.retries;
    votes_cast = t.votes_cast;
    backoff_units = t.backoff_units;
  }

let total_queries t = t.degree_q + t.edge_q + t.adj_q

let comm_bits t = 2 * (t.edge_q + t.adj_q)

let reset t =
  t.degree_q <- 0;
  t.edge_q <- 0;
  t.adj_q <- 0;
  t.retries <- 0;
  t.votes_cast <- 0;
  t.backoff_units <- 0;
  Hashtbl.reset t.seen_degree;
  Hashtbl.reset t.seen_edge;
  Hashtbl.reset t.seen_adj
