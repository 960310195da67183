(* The observability subsystem, end to end: counters/histograms that
   survive parallel fan-outs and crashed-and-retried tasks, spans with a
   hot-path table, and the deterministic registry snapshot.

   Run with: dune exec examples/observability.exe
   For a Chrome trace (open at https://ui.perfetto.dev):
     DCS_TRACE=/tmp/dcut.trace dune exec examples/observability.exe *)

open Dcs
module M = Obs.Metrics

let () =
  Obs.Trace.enable ();

  (* 1. Instrument your own code: metrics are global and get-or-create, so
     no handles need plumbing. *)
  let trials = M.counter "demo.trials" in
  let sizes = M.histogram ~buckets:10 "demo.sample_edges" in

  (* 2. Run instrumented work through the parallel engine. Counters are
     sharded per domain: nothing is lost, whatever DCS_DOMAINS says. *)
  let rng = Prng.create 2024 in
  let results =
    Pool.parallel_init ~n:24 (fun i ->
        Obs.Trace.with_span "demo.trial" @@ fun () ->
        M.inc trials;
        let rng = Prng.split rng i in
        let g = Generators.erdos_renyi_connected rng ~n:48 ~p:0.2 in
        let h = Benczur_karger.sparsify rng ~eps:0.5 g in
        M.observe sizes (Ugraph.m h);
        Stoer_wagner.mincut_value h)
  in
  Printf.printf "ran %d sparsify+mincut trials (mean sparsified cut %.2f)\n"
    (Array.length results)
    (Stats.mean results);

  (* 3. A crashed task's increments are journaled and discarded; only the
     successful retry commits. The counter ends at exactly +8. *)
  let attempts = M.counter "demo.supervised_tasks" in
  let _, rep =
    Pool.run_supervised ~rng:(Prng.create 7) ~n:8 (fun ctx ->
        M.inc attempts;
        if ctx.Pool.attempt = 0 && ctx.Pool.index = 3 then failwith "flaky";
        ctx.Pool.index)
  in
  Printf.printf
    "supervised sweep: %d crash(es), %d restart(s), counter says %d tasks\n"
    rep.Pool.crashes rep.Pool.restarts
    (M.counter_value attempts);

  (* 4. The registry, rendered. The same tables print to stderr when any
     dcut/bench run gets DCS_METRICS=1; a path writes the JSON snapshot
     that bin/check_determinism.sh byte-diffs across domain counts. *)
  print_newline ();
  Obs.Report.print ();
  Table.print (Obs.Report.span_table ())
