(* The four workloads. Each builds its inputs from the seed alone, runs one
   operation per call, and checks that operation's output against a
   reference path that does not share the code under measurement. *)

open Dcs
open Harness

(* Every pool runs on one domain: the host-speed kernel runs on one core,
   and a run spread over two shared cores slows with contention on
   either, which a one-core kernel cannot see. *)
let domains = 1

(* --- decode: the Theorem 1.1 / 1.2 decoders on exact sketches --- *)

module Decode = struct
  module Fa = Forall_lb
  module Fe = Foreach_lb

  (* k = 16: each for-all decision walks C(16, 8) = 12870 subsets. *)
  let fa = Fa.make_params ~beta:1 ~inv_eps_sq:16 32
  let fe = Fe.make_params ~beta:4 ~inv_eps:8 64
  let inputs = 16
  let bits = 48

  let setup ~seed =
    let master = Prng.create seed in
    let fa_insts =
      Array.init inputs (fun i -> Fa.random_instance (Prng.split master (2 * i)) fa)
    in
    let fe_insts =
      Array.init inputs (fun i ->
          Fe.random_instance (Prng.split master ((2 * i) + 1)) fe)
    in
    let picks =
      Array.init inputs (fun i ->
          Prng.sample_without_replacement
            (Prng.split master ((2 * inputs) + i))
            ~k:bits ~n:(Fe.bits_capacity fe))
    in
    let scratch = Fa.decode_scratch fa in
    (* The literal Lemma 4.4 decoder: one full cut query per subset on the
       unfrozen graph, computed once per instance. *)
    let reference = Array.make inputs None in
    let reference_decision j =
      match reference.(j) with
      | Some d -> d
      | None ->
          let a = fa_insts.(j) in
          let d =
            Fa.decode_enumerate fa ~query:(Cut.value a.Fa.graph) a.Fa.target
              ~t:a.Fa.gh.Gap_hamming.t
          in
          reference.(j) <- Some d;
          d
    in
    let run i =
      let j = i mod inputs in
      let a = fa_insts.(j) and e = fe_insts.(j) in
      let csr = span Csr (fun () -> Csr.of_digraph a.Fa.graph) in
      let decision =
        span Decode (fun () ->
            Fa.decode_enumerate_frozen ~scratch fa csr a.Fa.target
              ~t:a.Fa.gh.Gap_hamming.t)
      in
      let ecsr = span Csr (fun () -> Csr.of_digraph e.Fe.graph) in
      let query c = span Csr (fun () -> Csr.cut_value ecsr c) in
      let decoded =
        Array.map
          (fun q -> span Decode (fun () -> (Fe.decode_bit fe ~query q).Fe.decoded))
          picks.(j)
      in
      let check () =
        decision = reference_decision j
        && Array.for_all2
             (fun q got ->
               if Fe.failed_at e q then
                 got
                 = (Fe.decode_bit fe ~query:(Cut.value e.Fe.graph) q).Fe.decoded
               else got = e.Fe.s.(q))
             picks.(j) decoded
      in
      { items = 1 + bits; check }
    in
    { inputs; run; close = ignore }
end

(* --- sparsolve: sparsify-then-solve minimum cut on planted graphs --- *)

module Sparsolve = struct
  (* Two dense blocks of 64 joined by 2 light edges (~2.4k weighted
     edges): in-block edges are downsampled, the planted cut survives. *)
  let block = 64
  let cross = 2
  let p_inner = 0.6
  let max_weight = 6
  let eps = 0.4
  let rho = 14.0
  let cap = 300.0
  let rounds = 8
  let flow_budget = 32
  let trials = 32
  let inputs = 6

  let setup ~seed =
    let master = Prng.create seed in
    let graphs =
      Array.init inputs (fun i ->
          let r = Prng.split master i in
          Generators.random_multigraph_weights r
            (Generators.planted_mincut r ~block ~k:cross ~p_inner)
            ~max_weight)
    in
    let op_rngs = Prng.split master inputs in
    (* Stoer–Wagner on the full graph, once per input. *)
    let exact = Array.make inputs None in
    let exact_value j =
      match exact.(j) with
      | Some v -> v
      | None ->
          let v = Stoer_wagner.mincut_value graphs.(j) in
          exact.(j) <- Some v;
          v
    in
    let run i =
      let j = i mod inputs in
      let g = graphs.(j) in
      let csr = span Csr (fun () -> Csr.of_ugraph g) in
      let strengths = span Strength (fun () -> Strength.compute ~max_rounds:rounds g) in
      let connectivity =
        span Connectivity (fun () ->
            Connectivity.estimate_ugraph ~domains ~strengths ~flow_budget ~cap g)
      in
      let r =
        span Partial_mincut (fun () ->
            Partial_mincut.mincut ~domains ~rho ~connectivity ~csr
              (Prng.split op_rngs i)
              ~eps ~solver:(Partial_mincut.Karger { trials }) g)
      in
      let check () =
        let v = r.Partial_mincut.value and x = exact_value j in
        v = Ugraph.cut_value g r.Partial_mincut.cut
        && v >= x -. 1e-9
        && v <= ((1.0 +. eps) *. x) +. 1e-9
      in
      { items = 1; check }
    in
    { inputs; run; close = ignore }
end

(* --- serve: dcutd answering a calm, hot-keyed request stream --- *)

module Serving = struct
  let graphs = 64
  let chunk = 128
  let inputs = 16
  let check_every = 16

  let traffic =
    {
      Traffic.default with
      Traffic.keys = graphs;
      Traffic.burst_every = 0;
      Traffic.burst_len = 0;
    }

  let setup ~seed =
    let master = Prng.create seed in
    let catalog =
      Array.init graphs (fun i ->
          let r = Prng.split master i in
          let g = Generators.erdos_renyi_connected r ~n:48 ~p:0.12 in
          Csr.of_ugraph (Generators.random_multigraph_weights r g ~max_weight:8))
    in
    let server =
      Serve.create ~domains Serve.default_config ~graphs:catalog
        ~rng:(Prng.split master graphs)
    in
    let chunks =
      Array.init inputs (fun i ->
          Traffic.generate (Prng.split master (graphs + 1 + i)) traffic ~n:chunk)
    in
    let exact (r : Traffic.request) =
      let g = catalog.(r.Traffic.key) in
      Csr.cut_value g (Cut.random (Prng.create r.Traffic.cut_seed) ~n:(Csr.n g))
    in
    let run i =
      (* Replay the input chunk from the server's current clock. *)
      let clock = (Serve.stats server).Serve.clock in
      let reqs =
        Array.map
          (fun (r : Traffic.request) ->
            {
              r with
              Traffic.seq = (i * chunk) + r.Traffic.seq;
              Traffic.arrival = clock + r.Traffic.arrival;
            })
          chunks.(i mod inputs)
      in
      let responses = span Serve (fun () -> Serve.run server reqs) in
      let check () =
        let ok = ref (Array.length responses = chunk) in
        Array.iteri
          (fun k resp ->
            match resp with
            | Serve.Answered a ->
                if k mod check_every = 0 then begin
                  let x = exact reqs.(k) in
                  if Float.abs (a.Serve.value -. x) > (a.Serve.eps *. x) +. 1e-9
                  then ok := false
                end
            | Serve.Rejected _ -> ok := false)
          responses;
        !ok
      in
      { items = chunk; check }
    in
    { inputs; run; close = ignore }
end

(* --- ingest: WAL-backed edge streams, freeze, crash recovery --- *)

module Ingest = struct
  let n = 48
  let mutations = 384
  let inputs = 8
  let sketch_seed = 7
  let refreeze = Stream_sketch.Delta_buffer { compact_threshold = 64 }

  type mutation = { insert : bool; u : int; v : int; w : float }

  (* A valid insert/delete stream: about 30% deletions, each removing part
     of the weight an earlier insert left on its arc. Returns the stream
     and the fingerprint of the graph it ends in. *)
  let stream rng =
    let weights = Hashtbl.create 256 in
    let cur arc = Option.value ~default:0.0 (Hashtbl.find_opt weights arc) in
    let inserted = Array.make mutations (0, 0) and count = ref 0 in
    let ops =
      Array.init mutations (fun _ ->
          let victim =
            if !count > 0 && Prng.int rng 10 < 3 then
              Some inserted.(Prng.int rng !count)
            else None
          in
          match victim with
          | Some ((u, v) as arc) when cur arc > 0.0 ->
              let w = float_of_int (1 + Prng.int rng (int_of_float (cur arc))) in
              Hashtbl.replace weights arc (cur arc -. w);
              { insert = false; u; v; w }
          | _ ->
              let u = Prng.int rng n in
              let v = (u + 1 + Prng.int rng (n - 1)) mod n in
              let w = float_of_int (1 + Prng.int rng 8) in
              Hashtbl.replace weights (u, v) (cur (u, v) +. w);
              inserted.(!count) <- (u, v);
              incr count;
              { insert = true; u; v; w })
    in
    let g = Digraph.create n in
    Hashtbl.iter (fun (u, v) w -> if w > 0.0 then Digraph.add_edge g u v w) weights;
    (ops, Csr.fingerprint (Csr.of_digraph g))

  let work_root = ".perfbench_work"
  let sessions = ref 0

  let rec remove_tree path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path

  let setup ~seed =
    let master = Prng.create seed in
    let streams = Array.init inputs (fun i -> stream (Prng.split master i)) in
    incr sessions;
    if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o755;
    let dir =
      Filename.concat work_root
        (Printf.sprintf "ingest-%d-%d" (Unix.getpid ()) !sessions)
    in
    remove_tree dir;
    let snapshot = Filename.concat dir "snapshot.ckpt"
    and wal = Filename.concat dir "wal.log" in
    let run i =
      let ops, want = streams.(i mod inputs) in
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ snapshot; wal ];
      let journal =
        span Journal (fun () ->
            match Stream_sketch.open_journal ~refreeze ~dir ~n ~seed:sketch_seed () with
            | Ok (j, _) -> j
            | Error e -> failwith ("perfbench ingest: open_journal: " ^ e))
      in
      let rejected = ref 0 in
      Array.iter
        (fun m ->
          let r =
            span Journal (fun () ->
                if m.insert then
                  Stream_sketch.journal_insert journal ~u:m.u ~v:m.v ~w:m.w
                else Stream_sketch.journal_delete journal ~u:m.u ~v:m.v ~w:m.w)
          in
          if Result.is_error r then incr rejected)
        ops;
      Stream_sketch.close_journal journal;
      let live = Stream_sketch.journal_state journal in
      let fp = span Csr (fun () -> Stream_sketch.fingerprint live) in
      let recovered =
        span Recover (fun () ->
            Stream_sketch.recover ~refreeze ~n ~seed:sketch_seed ~snapshot ~wal ())
      in
      let check () =
        match recovered with
        | Error _ -> false
        | Ok r ->
            !rejected = 0
            && fp = want
            && r.Stream_sketch.report.Wal.applied = mutations
            && r.Stream_sketch.report.Wal.quarantined = []
            && Stream_sketch.digest r.Stream_sketch.state = Stream_sketch.digest live
      in
      { items = mutations; check }
    in
    let close () =
      remove_tree dir;
      (try Sys.rmdir work_root with Sys_error _ -> ())
    in
    { inputs; run; close }
end

let all =
  [
    { name = "decode"; setup = Decode.setup };
    { name = "sparsolve"; setup = Sparsolve.setup };
    { name = "serve"; setup = Serving.setup };
    { name = "ingest"; setup = Ingest.setup };
  ]
