(* E16 — fault injection: what robustness costs, in bits and queries,
   against the paper's idealized protocols. Part A runs the distributed
   pipeline over lossy channels (drops + corruptions, checksummed frames,
   bounded re-request); part B runs the Theorem 5.7 estimator against a
   flaky oracle (timeouts + lies, retry-with-backoff + majority vote) and
   reports the measured query overhead factor vs the Õ(m/(ε²k)) budget.

   Scheduled as DAG stages: one instance stage draws both graphs, their
   exact min cuts, the shards and the two row masters from the experiment
   seed, and each sweep row is one [Serial] stage whose artifact is that
   row's trial results, computed under the supervised trial engine. With
   --sched-cache DIR an interrupted run resumes at row granularity: rows
   already on disk are cache hits, and stdout is byte-identical either
   way.

   Determinism: trial t of each sweep row runs on the stream
   Prng.split (Prng.split mrow t) 0 (the supervised engine's task stream),
   and every fault injector forks off that stream — the tables are
   byte-identical at every DCS_DOMAINS setting and in every cache state
   (bin/check_determinism.sh checks both). *)

open Dcs
module P = Pipelines

let trials_a = 24
let trials_b = 16
let servers = 3
let rates_a = [ 0.0; 0.05; 0.1; 0.2; 0.3 ]
let rates_b = [ (0.0, 1); (0.05, 3); (0.1, 3); (0.2, 3); (0.2, 7) ]
let eps_b = 0.5

let cfg =
  { (Coordinator.default_config ~eps:0.3) with Coordinator.karger_trials = 40 }

(* Everything the rows and the report share, drawn from one experiment
   stream: each draw advances the stream the next one sees, so the draw
   order fixes both row masters. *)
type instance = {
  g : Ugraph.t;
  exact : float;
  shards : Ugraph.t array;
  master_a : Prng.t;
  g2 : Ugraph.t;
  k_true : float;
  master_b : Prng.t;
}

let instance_stage pl =
  Sched.stage (P.dag pl) ~name:"fault.instance"
    ~fingerprint:(Prng.fingerprint (Common.rng_for 16))
    ~codec:(Sched.marshal_codec ()) ~deps:[]
    (fun () ->
      let rng0 = Common.rng_for 16 in
      let g = Generators.planted_mincut rng0 ~block:50 ~k:7 ~p_inner:0.6 in
      let shards = Partition.random rng0 ~servers g in
      let master_a = Prng.fork rng0 in
      let g2 = Generators.planted_mincut rng0 ~block:40 ~k:6 ~p_inner:0.5 in
      let master_b = Prng.fork rng0 in
      {
        g;
        exact = Stoer_wagner.mincut_value g;
        shards;
        master_a;
        g2;
        k_true = Stoer_wagner.mincut_value g2;
        master_b;
      })

(* Part A row: per-trial results of the pipeline over lossy channels. The
   pipeline itself fans its contraction trials over domains, so the row's
   trials run sequentially (domains 1); supervision still applies per
   trial. *)
let lossy_row pl inst row p =
  Sched.stage (P.dag pl)
    ~name:(Printf.sprintf "fault.lossy r%d p%.2f t%d" row p trials_a)
    ~mode:Sched.Serial ~codec:(Sched.marshal_codec ())
    ~deps:[ Sched.dep inst ]
    (fun () ->
      let i = P.value pl inst in
      fst
        (Pool.run_supervised ~domains:1 ~rng:(Prng.split i.master_a row)
           ~n:trials_a (fun ctx ->
             let rng = ctx.Pool.rng in
             let fault =
               Fault.create (Fault.policy ~drop:p ~corrupt:p ()) rng
             in
             match Coordinator.min_cut_robust rng cfg ~fault i.shards with
             | r ->
                 Some
                   ( r.Coordinator.base.Coordinator.estimate,
                     r.Coordinator.report.Coordinator.retransmissions,
                     r.Coordinator.report.Coordinator.coarse_lost
                     + r.Coordinator.report.Coordinator.fine_lost,
                     r.Coordinator.report.Coordinator.degraded,
                     r.Coordinator.report.Coordinator.retransmit_bits,
                     r.Coordinator.base.Coordinator.total_bits )
             | exception (Failure _ | Invalid_argument _) -> None)))

(* Part B row: per-trial results of the estimator against a flaky
   oracle. *)
let flaky_row pl inst row (p, vote_k) =
  Sched.stage (P.dag pl)
    ~name:(Printf.sprintf "fault.flaky r%d p%.2f k%d t%d" row p vote_k trials_b)
    ~mode:Sched.Serial ~codec:(Sched.marshal_codec ())
    ~deps:[ Sched.dep inst ]
    (fun () ->
      let i = P.value pl inst in
      fst
        (Pool.run_supervised ~rng:(Prng.split i.master_b row) ~n:trials_b
           (fun ctx ->
             let rng = ctx.Pool.rng in
             let fault =
               Fault.create (Fault.policy ~timeout:p ~lie:(p /. 2.0) ()) rng
             in
             let o = Oracle.create ~fault ~vote_k i.g2 in
             try
               let r = Estimator.estimate rng o ~eps:eps_b ~mode:Estimator.Modified in
               Some
                 ( r.Estimator.estimate,
                   r.Estimator.total_queries,
                   (Oracle.stats o).Oracle.retries )
             with Oracle.Exhausted _ -> None)))

let plan pl =
  let inst = instance_stage pl in
  let rows_a = List.mapi (lossy_row pl inst) rates_a in
  let rows_b = List.mapi (flaky_row pl inst) rates_b in
  fun () ->
    Common.section "E16 Fault injection — robustness overhead vs fault rate";
    let { g; exact; g2; k_true; _ } = P.value pl inst in

    (* --- Part A: lossy channels under the distributed pipeline --- *)
    Printf.printf
      "A: pipeline, n=%d m=%d true min cut=%.0f, %d servers, retry budget 4\n"
      (Ugraph.n g) (Ugraph.m g) exact servers;
    let ta =
      Table.create ~title:"lossy channels: drop = corrupt = p per delivery"
        ~columns:
          [
            "p"; "decode ok"; "estimate ok"; "retrans"; "lost"; "degraded";
            "retrans kb"; "overhead";
          ]
    in
    List.iter2
      (fun p node ->
        let results = P.value pl node in
        let decode_ok =
          Array.fold_left (fun a r -> if r <> None then a + 1 else a) 0 results
        in
        let est_ok =
          Array.fold_left
            (fun a r ->
              match r with
              | Some (est, _, _, _, _, _) when Float.abs (est -. exact) <= 0.5 *. exact
                ->
                  a + 1
              | _ -> a)
            0 results
        in
        let sum f =
          Array.fold_left
            (fun a r -> match r with Some v -> a + f v | None -> a)
            0 results
        in
        let retrans = sum (fun (_, retrans, _, _, _, _) -> retrans) in
        let lost = sum (fun (_, _, lost, _, _, _) -> lost) in
        let degraded = sum (fun (_, _, _, deg, _, _) -> if deg then 1 else 0) in
        let retrans_bits = sum (fun (_, _, _, _, rbits, _) -> rbits) in
        let payload_bits = sum (fun (_, _, _, _, _, pbits) -> pbits) in
        let overhead =
          if payload_bits = 0 then 0.0
          else float_of_int retrans_bits /. float_of_int payload_bits
        in
        Table.add_row ta
          [
            Printf.sprintf "%.2f" p;
            Common.rate_cell ~ok:decode_ok ~total:trials_a;
            Common.rate_cell ~ok:est_ok ~total:trials_a;
            Table.fint retrans;
            Table.fint lost;
            Table.fint degraded;
            Common.kbits retrans_bits;
            Table.fpct overhead;
          ])
      rates_a rows_a;
    Table.print ta;
    Common.note "p = 0 runs the idealized code path (min_cut is exactly the zero-fault";
    Common.note "instance of min_cut_robust — same estimates, same payload bits);";
    Common.note "overhead = retransmitted bits / first-send bits.";

    (* --- Part B: flaky local-query oracle under the Theorem 5.7 estimator --- *)
    let m = float_of_int (Ugraph.m g2) in
    let budget = m /. (eps_b *. eps_b *. k_true) in
    Printf.printf
      "\nB: estimator, n=%d m=%.0f k=%.0f eps=%.2f, Thm 5.7 budget m/(eps^2 k)=%.0f\n"
      (Ugraph.n g2) m k_true eps_b budget;
    let tb =
      Table.create
        ~title:"flaky oracle: timeout = p, lie = p/2 per query (retries <= 8)"
        ~columns:
          [ "p"; "vote k"; "success"; "avg queries"; "retries"; "overhead"; "q/budget" ]
    in
    let clean_queries = ref 0.0 in
    List.iteri
      (fun row ((p, vote_k), node) ->
        let results = P.value pl node in
        let ok =
          Array.fold_left
            (fun a r ->
              match r with
              | Some (est, _, _) when Float.abs (est -. k_true) <= 0.5 *. k_true -> a + 1
              | _ -> a)
            0 results
        in
        let completed =
          Array.fold_left (fun a r -> if r <> None then a + 1 else a) 0 results
        in
        let avg_q =
          if completed = 0 then 0.0
          else
            Array.fold_left
              (fun a r -> match r with Some (_, q, _) -> a +. float_of_int q | None -> a)
              0.0 results
            /. float_of_int completed
        in
        let retries =
          Array.fold_left
            (fun a r -> match r with Some (_, _, rt) -> a + rt | None -> a)
            0 results
        in
        if row = 0 then clean_queries := avg_q;
        let overhead = if !clean_queries > 0.0 then avg_q /. !clean_queries else 0.0 in
        Table.add_row tb
          [
            Printf.sprintf "%.2f" p;
            Table.fint vote_k;
            Common.rate_cell ~ok ~total:trials_b;
            Table.ffloat ~digits:0 avg_q;
            Table.fint retries;
            Printf.sprintf "%.2fx" overhead;
            Printf.sprintf "%.1fx" (avg_q /. budget);
          ])
      (List.combine rates_b rows_b);
    Table.print tb;
    Common.note "success = estimate within (1 ± 0.5)k; overhead = avg queries vs the";
    Common.note "p = 0 row (which is bit-identical to the unwrapped estimator).";
    Common.note "Lies are absorbed by k-way majority votes, timeouts by <= 8 retries";
    Common.note "with exponential backoff; every retry and vote hits the query meter.";
    Common.note "At p = 0.2 a 3-vote majority is itself subverted (about 3 in 100";
    Common.note "answers stay wrong) — widening to k = 7 buys the success back at";
    Common.note "the proportional extra query cost: robustness is a measurable factor,";
    Common.note "never free, exactly the trade the lower bounds price in bits."
