(* dcut — command-line driver for the library.

   Subcommands:
     gen        generate a random graph and print it
     mincut     exact / randomized global minimum cut
     balance    balance diagnostics of a directed graph
     sparsify   Benczúr–Karger or directed sparsification
     encode     Section 3: encode a message into a balanced digraph
     decode     Section 3: decode it back from cut queries
     allpairs   all-pairs minimum cuts (Gomory-Hu tree)
     resistance effective resistances
     localquery estimate a min cut through the metered local-query oracle
     connectivity dynamic connectivity over an insert/delete stream
     distributed run the distributed min-cut pipeline

   Graphs are exchanged as whitespace-separated edge lists:
     <n>
     <u> <v> <w>
     ... *)

open Cmdliner
open Dcs

(* --- graph (de)serialization (library format, Dcs_graph.Serialize) --- *)

let output_digraph oc g = Dcs_graph.Serialize.output_digraph oc g
let output_ugraph oc g = Dcs_graph.Serialize.output_ugraph oc g

let with_input path f =
  match path with
  | "-" -> f stdin
  | p ->
      let ic = open_in p in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

let with_output path f =
  match path with
  | "-" -> f stdout
  | p ->
      let oc = open_out p in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* A malformed graph file, or an instance the command cannot answer, is a
   usage error, reported like a bad flag: one "dcut: <reason>" line on
   stderr and exit 124, before any output. *)
let refuse fmt =
  Printf.ksprintf
    (fun reason ->
      prerr_endline ("dcut: " ^ reason);
      exit Cmd.Exit.cli_error)
    fmt

let read parse ic = match parse ic with Ok g -> g | Error e -> refuse "input %s" e

let read_digraph = read Dcs_graph.Serialize.input_digraph
let read_ugraph = read Dcs_graph.Serialize.input_ugraph

(* A graph with fewer than two vertices has no cut: every command that
   asks for one refuses it before any work. *)
let require_vertices cmd n =
  if n < 2 then refuse "%s needs at least 2 vertices, the graph has %d" cmd n

(* --- common args --- *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the observability registry (counters, histograms) to \
           stderr after the run. The DCS_METRICS environment variable is \
           honored either way.")

(* Every subcommand funnels its exit code through here so [--metrics] and
   the DCS_METRICS env var behave identically across the whole CLI. *)
let finish metrics code =
  if metrics then prerr_string (Obs.Report.render ());
  Obs.Report.dump_env ();
  code

let input_arg =
  Arg.(
    value & opt string "-"
    & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Input edge list ('-' = stdin).")

let output_arg =
  Arg.(
    value & opt string "-"
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file ('-' = stdout).")

(* --- gen --- *)

let gen_cmd =
  let family =
    Arg.(
      value
      & opt (enum [ ("er", `Er); ("balanced", `Balanced); ("planted", `Planted); ("gxy", `Gxy) ]) `Er
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:"Graph family: er | balanced | planted | gxy.")
  in
  let n_arg = Arg.(value & opt int 64 & info [ "n" ] ~doc:"Vertex count.") in
  let p_arg = Arg.(value & opt float 0.2 & info [ "p" ] ~doc:"Edge probability.") in
  let beta_arg = Arg.(value & opt float 2.0 & info [ "beta" ] ~doc:"Balance β.") in
  let k_arg = Arg.(value & opt int 5 & info [ "k" ] ~doc:"Planted min-cut size.") in
  let run metrics seed family n p beta k out =
    let rng = Prng.create seed in
    with_output out (fun oc ->
        match family with
        | `Er -> output_ugraph oc (Generators.erdos_renyi_connected rng ~n ~p)
        | `Balanced ->
            output_digraph oc
              (Generators.balanced_digraph rng ~n ~p ~beta ~max_weight:10.0)
        | `Planted ->
            output_ugraph oc (Generators.planted_mincut rng ~block:(n / 2) ~k ~p_inner:p)
        | `Gxy ->
            let l = int_of_float (Float.round (sqrt (float_of_int n))) in
            let x = Bitstring.random rng (l * l)
            and y = Bitstring.random rng (l * l) in
            output_ugraph oc (Gxy.build ~x ~y));
    finish metrics 0
  in
  let term =
    Term.(
      const run $ metrics_arg $ seed_arg $ family $ n_arg $ p_arg $ beta_arg
      $ k_arg $ output_arg)
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a random graph as an edge list.") term

(* --- mincut --- *)

let mincut_cmd =
  let algo =
    Arg.(
      value
      & opt (enum [ ("stoer-wagner", `Sw); ("karger", `Karger); ("both", `Both) ]) `Both
      & info [ "algo" ] ~doc:"Algorithm: stoer-wagner | karger | both.")
  in
  let trials = Arg.(value & opt int 100 & info [ "trials" ] ~doc:"Karger trials.") in
  (* A disconnected graph is answered here, exactly: 0, with vertex 0's
     component as the side — Karger declares connected inputs only. *)
  let run metrics seed algo trials input =
    let g = with_input input read_ugraph in
    let n = Ugraph.n g in
    require_vertices "mincut" n;
    let rng = Prng.create seed in
    let solve =
      if Traversal.is_connected g then fun solver -> solver ()
      else
        let comp = Traversal.connected_components g in
        fun _ -> (0.0, Cut.of_mem ~n (fun v -> comp.(v) = comp.(0)))
    in
    (match algo with
    | `Sw | `Both ->
        let v, c = solve (fun () -> Stoer_wagner.mincut g) in
        Printf.printf "stoer-wagner: %.6g  (side %d vertices)\n" v (Cut.cardinal c)
    | `Karger -> ());
    (match algo with
    | `Karger | `Both ->
        let v, c = solve (fun () -> Karger.mincut rng ~trials g) in
        Printf.printf "karger(%d):   %.6g  (side %d vertices)\n" trials v
          (Cut.cardinal c)
    | `Sw -> ());
    finish metrics 0
  in
  let term = Term.(const run $ metrics_arg $ seed_arg $ algo $ trials $ input_arg) in
  Cmd.v (Cmd.info "mincut" ~doc:"Global minimum cut of an undirected graph.") term

(* --- balance --- *)

let balance_cmd =
  let trials = Arg.(value & opt int 500 & info [ "trials" ] ~doc:"Sampled cuts.") in
  let run metrics seed trials input =
    let g = with_input input read_digraph in
    let rng = Prng.create seed in
    Printf.printf "n=%d m=%d strongly-connected=%b\n" (Digraph.n g) (Digraph.m g)
      (Traversal.is_strongly_connected g);
    Printf.printf "edgewise upper bound: %.6g\n" (Balance.edgewise_upper_bound g);
    Printf.printf "sampled lower bound:  %.6g\n"
      (Balance.sampled_lower_bound rng ~trials g);
    if Digraph.n g <= 20 then
      Printf.printf "exact balance:        %.6g\n" (Balance.exact g);
    finish metrics 0
  in
  let term = Term.(const run $ metrics_arg $ seed_arg $ trials $ input_arg) in
  Cmd.v (Cmd.info "balance" ~doc:"β-balance diagnostics of a digraph.") term

(* --- sparsify --- *)

let sparsify_cmd =
  let eps = Arg.(value & opt float 0.3 & info [ "eps" ] ~doc:"Accuracy ε.") in
  let beta =
    Arg.(
      value & opt (some float) None
      & info [ "beta" ] ~doc:"Treat input as a β-balanced digraph (directed mode).")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("forall", `Forall); ("foreach", `Foreach) ]) `Forall
      & info [ "mode" ] ~doc:"Guarantee: forall | foreach.")
  in
  let run metrics seed eps beta mode input output =
    let rng = Prng.create seed in
    (match beta with
    | None ->
        let g = with_input input read_ugraph in
        let h =
          match mode with
          | `Forall -> Benczur_karger.sparsify rng ~eps g
          | `Foreach -> Foreach_sampler.sparsify rng ~eps g
        in
        Printf.eprintf "kept %d of %d edges\n" (Ugraph.m h) (Ugraph.m g);
        with_output output (fun oc -> output_ugraph oc h)
    | Some beta ->
        let g = with_input input read_digraph in
        let h =
          match mode with
          | `Forall -> Directed_sparsifier.forall_sparsify rng ~eps ~beta g
          | `Foreach -> Directed_sparsifier.foreach_sparsify rng ~eps ~beta g
        in
        Printf.eprintf "kept %d of %d edges\n" (Digraph.m h) (Digraph.m g);
        with_output output (fun oc -> output_digraph oc h));
    finish metrics 0
  in
  let term =
    Term.(
      const run $ metrics_arg $ seed_arg $ eps $ beta $ mode $ input_arg
      $ output_arg)
  in
  Cmd.v (Cmd.info "sparsify" ~doc:"Cut sparsification (undirected or directed).") term

(* --- encode / decode (Section 3) --- *)

let bits_of_string = Dcs_util.Message.to_signs
let string_of_bits bits nbytes =
  Dcs_util.Message.of_signs (Array.sub bits 0 (8 * nbytes))

let msg_arg =
  Arg.(
    required & opt (some string) None
    & info [ "message" ] ~docv:"TEXT" ~doc:"Message to encode / expected length.")

let inv_eps_arg =
  Arg.(value & opt int 8 & info [ "inv-eps" ] ~doc:"1/ε (a power of two).")

let beta_int_arg =
  Arg.(value & opt int 1 & info [ "beta" ] ~doc:"β (a perfect square).")

let n_for_message ~beta ~inv_eps bits =
  (* Smallest valid n whose capacity covers the payload. *)
  let block = int_of_float (sqrt (float_of_int beta)) * inv_eps in
  let rec go chains =
    let n = chains * block in
    let p = Foreach_lb.make_params ~beta ~inv_eps n in
    if Foreach_lb.bits_capacity p >= bits then p else go (chains + 1)
  in
  go 2

let encode_cmd =
  let run metrics seed message beta inv_eps output =
    let payload = bits_of_string message in
    let p = n_for_message ~beta ~inv_eps (Array.length payload) in
    let rng = Prng.create seed in
    let s =
      Array.init (Foreach_lb.bits_capacity p) (fun i ->
          if i < Array.length payload then payload.(i) else Prng.sign rng)
    in
    let inst = Foreach_lb.encode p ~s in
    Printf.eprintf "encoded %d bits into n=%d digraph (m=%d, balance <= %.1f)\n"
      (Array.length payload) p.Foreach_lb.n
      (Digraph.m inst.Foreach_lb.graph)
      (Balance.edgewise_upper_bound inst.Foreach_lb.graph);
    with_output output (fun oc -> output_digraph oc inst.Foreach_lb.graph);
    finish metrics 0
  in
  let term =
    Term.(
      const run $ metrics_arg $ seed_arg $ msg_arg $ beta_int_arg $ inv_eps_arg
      $ output_arg)
  in
  Cmd.v
    (Cmd.info "encode"
       ~doc:"Encode a text message into a balanced digraph (Theorem 1.1).")
    term

let decode_cmd =
  let len_arg =
    Arg.(
      required & opt (some int) None
      & info [ "bytes" ] ~docv:"N" ~doc:"Number of message bytes to recover.")
  in
  let noise_arg =
    Arg.(
      value & opt float 0.0
      & info [ "noise" ] ~doc:"Answer cut queries with (1±NOISE) error.")
  in
  let run metrics seed len beta inv_eps noise input =
    let g = with_input input read_digraph in
    let p =
      let block = int_of_float (sqrt (float_of_int beta)) * inv_eps in
      Foreach_lb.make_params ~beta ~inv_eps (Digraph.n g / block * block)
    in
    let rng = Prng.create seed in
    let sk =
      if noise > 0.0 then Noisy_oracle.create rng ~eps:noise g
      else Exact_sketch.create g
    in
    let bits =
      Array.init (len * 8) (fun q ->
          (Foreach_lb.decode_bit p ~query:sk.Sketch.query q).Foreach_lb.decoded)
    in
    print_endline (String.escaped (string_of_bits bits len));
    finish metrics 0
  in
  let term =
    Term.(
      const run $ metrics_arg $ seed_arg $ len_arg $ beta_int_arg $ inv_eps_arg
      $ noise_arg $ input_arg)
  in
  Cmd.v
    (Cmd.info "decode" ~doc:"Recover a message from cut queries (Theorem 1.1).")
    term

(* --- allpairs (Gomory–Hu) --- *)

(* Gomory–Hu trees and effective resistances are defined on connected
   graphs only: anything else is refused before any work. *)
let require_connected cmd g =
  if not (Traversal.is_connected g) then
    refuse "%s needs a connected graph, the graph has %d components" cmd
      (Traversal.component_count g)

let allpairs_cmd =
  let run metrics input =
    let g = with_input input read_ugraph in
    let n = Ugraph.n g in
    require_vertices "allpairs" n;
    require_connected "allpairs" g;
    let t = Gomory_hu.build g in
    Printf.printf "gomory-hu tree (child -- parent : min-cut value):\n";
    List.iter
      (fun (c, p, f) -> Printf.printf "  %d -- %d : %.6g\n" c p f)
      (List.sort compare (Gomory_hu.tree_edges t));
    let v, side = Gomory_hu.global_min_cut t in
    Printf.printf "global min cut: %.6g (side %d vertices)\n" v (Cut.cardinal side);
    finish metrics 0
  in
  let term = Term.(const run $ metrics_arg $ input_arg) in
  Cmd.v
    (Cmd.info "allpairs" ~doc:"All-pairs minimum cuts via a Gomory–Hu tree.")
    term

(* --- resistance --- *)

let resistance_cmd =
  let pair =
    Arg.(
      value & opt (some (pair int int)) None
      & info [ "pair" ] ~docv:"U,V" ~doc:"Report R(u,v) for one pair only.")
  in
  let run metrics input pair =
    let g = with_input input read_ugraph in
    let n = Ugraph.n g in
    (match pair with
    | Some (u, v) when u < 0 || u >= n || v < 0 || v >= n ->
        refuse "resistance --pair %d,%d: vertices must lie in 0..%d" u v (n - 1)
    | Some (u, v) when u = v ->
        refuse "resistance --pair %d,%d: the two vertices must differ" u v
    | _ -> ());
    require_connected "resistance" g;
    (match pair with
    | Some (u, v) -> Printf.printf "R(%d,%d) = %.6g\n" u v (Resistance.pair g u v)
    | None ->
        let rs = Resistance.all_edges g in
        Array.iter
          (fun (u, v, w) ->
            Printf.printf "%d -- %d  w=%.6g  R=%.6g\n" u v w (Hashtbl.find rs (u, v)))
          (Ugraph.edges g);
        Printf.printf "foster sum (= n-1 when connected): %.6g\n"
          (Resistance.foster_sum g));
    finish metrics 0
  in
  let term = Term.(const run $ metrics_arg $ input_arg $ pair) in
  Cmd.v
    (Cmd.info "resistance" ~doc:"Effective resistances (spectral importance).")
    term

(* --- localquery --- *)

let localquery_cmd =
  let eps = Arg.(value & opt float 0.5 & info [ "eps" ] ~doc:"Accuracy ε.") in
  let mode =
    Arg.(
      value
      & opt (enum [ ("modified", Estimator.Modified); ("original", Estimator.Original) ])
          Estimator.Modified
      & info [ "mode" ] ~doc:"Schedule: modified (Thm 5.7) | original.")
  in
  let run metrics seed eps mode input =
    let g = with_input input read_ugraph in
    require_vertices "localquery" (Ugraph.n g);
    let rng = Prng.create seed in
    let o = Oracle.create ~memoize:true g in
    let r = Estimator.estimate ~c0:1.0 rng o ~eps ~mode in
    Printf.printf "estimate: %.6g\n" r.Estimator.estimate;
    Printf.printf "queries:  %d (degree %d, edge %d) of %d slots\n"
      r.Estimator.total_queries r.Estimator.degree_queries r.Estimator.edge_queries
      ((2 * Ugraph.m g) + Ugraph.n g);
    Printf.printf "comm bits (Lemma 5.6): %d\n" r.Estimator.comm_bits;
    finish metrics 0
  in
  let term = Term.(const run $ metrics_arg $ seed_arg $ eps $ mode $ input_arg) in
  Cmd.v
    (Cmd.info "localquery" ~doc:"Min-cut estimation via metered local queries.")
    term

(* --- connectivity (AGM turnstile stream) --- *)

let connectivity_cmd =
  let n_arg =
    Arg.(
      required & opt (some int) None
      & info [ "n" ] ~docv:"N" ~doc:"Vertex count (the stream's universe).")
  in
  let copies = Arg.(value & opt int 6 & info [ "copies" ] ~doc:"Sampler redundancy.") in
  let run metrics seed n copies input =
    (* Stream format: one op per line, "+ u v" inserts, "- u v" deletes. *)
    let rng = Prng.create seed in
    let sk = Agm_sketch.create ~copies rng ~n in
    let ops = ref 0 in
    with_input input (fun ic ->
        try
          while true do
            match String.split_on_char ' ' (String.trim (input_line ic)) with
            | [ "+"; u; v ] ->
                Agm_sketch.add_edge sk (int_of_string u) (int_of_string v);
                incr ops
            | [ "-"; u; v ] ->
                Agm_sketch.remove_edge sk (int_of_string u) (int_of_string v);
                incr ops
            | [] | [ "" ] -> ()
            | _ -> failwith "expected '+ u v' or '- u v'"
          done
        with End_of_file -> ());
    Printf.printf "processed %d stream operations into %d sketch bits\n" !ops
      (Agm_sketch.size_bits sk);
    let forest = Agm_sketch.spanning_forest sk in
    let comps = Agm_sketch.components_after_forest sk forest in
    let distinct = Array.fold_left max (-1) comps + 1 in
    Printf.printf "spanning forest: %d edges; components (w.h.p.): %d; connected: %b\n"
      (List.length forest) distinct
      (List.length forest = n - 1);
    finish metrics 0
  in
  let term = Term.(const run $ metrics_arg $ seed_arg $ n_arg $ copies $ input_arg) in
  Cmd.v
    (Cmd.info "connectivity"
       ~doc:"Dynamic connectivity over an insert/delete edge stream (AGM sketch).")
    term

(* --- distributed --- *)

let distributed_cmd =
  let eps = Arg.(value & opt float 0.25 & info [ "eps" ] ~doc:"Accuracy ε.") in
  let servers = Arg.(value & opt int 4 & info [ "servers" ] ~doc:"Server count.") in
  let run metrics seed eps servers input =
    let g = with_input input read_ugraph in
    require_vertices "distributed" (Ugraph.n g);
    let rng = Prng.create seed in
    let shards = Partition.random rng ~servers g in
    let r = Coordinator.min_cut rng (Coordinator.default_config ~eps) shards in
    Printf.printf "estimate: %.6g (from %d candidates)\n" r.Coordinator.estimate
      r.Coordinator.candidates;
    Printf.printf "communication: pipeline %d bits (coarse %d + foreach %d)\n"
      r.Coordinator.total_bits r.Coordinator.forall_bits r.Coordinator.foreach_bits;
    Printf.printf "baselines:     ship-all %d bits, forall@eps %d bits\n"
      r.Coordinator.naive_bits r.Coordinator.fullacc_forall_bits;
    finish metrics 0
  in
  let term = Term.(const run $ metrics_arg $ seed_arg $ eps $ servers $ input_arg) in
  Cmd.v (Cmd.info "distributed" ~doc:"Distributed min-cut pipeline.") term

let () =
  let doc = "directed cut sparsification & distributed min-cut toolkit" in
  let info = Cmd.info "dcut" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        gen_cmd; mincut_cmd; balance_cmd; sparsify_cmd; encode_cmd; decode_cmd;
        allpairs_cmd; resistance_cmd; localquery_cmd; connectivity_cmd;
        distributed_cmd;
      ]
  in
  exit (Cmd.eval' group)
