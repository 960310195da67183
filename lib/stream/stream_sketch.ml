module Prng = Dcs_util.Prng
module Checkpoint = Dcs_util.Checkpoint
module Metrics = Dcs_obs_core.Metrics
module Digraph = Dcs_graph.Digraph
module Ugraph = Dcs_graph.Ugraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut
module Sketch = Dcs_sketch.Sketch
module Exact_sketch = Dcs_sketch.Exact_sketch
module Imbalance_sketch = Dcs_sketch.Imbalance_sketch

(* stream.* registry funnel. Everything here is a pure count of logical
   events on the (single-threaded) ingest path, so snapshots are
   byte-identical at every DCS_DOMAINS. *)
let m_inserts = Metrics.counter "stream.inserts"
let m_deletes = Metrics.counter "stream.deletes"
let m_rejects = Metrics.counter "stream.rejects"
let m_compactions = Metrics.counter "stream.compactions"
let m_cut_queries = Metrics.counter "stream.cut_queries"
let m_checkpoint_saves = Metrics.counter "stream.checkpoint_saves"
let m_recoveries = Metrics.counter "stream.recoveries"

type refreeze = Rebuild | Delta_buffer of { compact_threshold : int }

type reject =
  | Out_of_range of { u : int; v : int; n : int }
  | Self_loop of int
  | Bad_weight of float
  | Below_zero of { u : int; v : int; have : float; requested : float }

let pp_reject = function
  | Out_of_range { u; v; n } ->
      Printf.sprintf "arc (%d, %d) out of range for n=%d" u v n
  | Self_loop u -> Printf.sprintf "self-loop on vertex %d" u
  | Bad_weight w -> Printf.sprintf "weight %h not positive and finite" w
  | Below_zero { u; v; have; requested } ->
      Printf.sprintf "deleting %h from arc (%d, %d) holding only %h" requested
        u v have

exception Rejected of reject

let () =
  Printexc.register_printer (function
    | Rejected r -> Some ("Stream_sketch.Rejected: " ^ pp_reject r)
    | _ -> None)

(* Support samplers per state: enough independent ℓ₀ copies that a
   for-each seed edge query succeeds with good constant probability. *)
let copies = 8

type t = {
  n : int;
  seed : int;
  refreeze : refreeze;
  mutable delta : Csr.delta;  (* frozen base + unfrozen overlay *)
  mutable frozen : Csr.t option;  (* memoized canonical freeze *)
  imb : float array;  (* out-weight minus in-weight, per vertex *)
  support : L0_sampler.t array;  (* ±1 on arc-presence toggles *)
  mutable applied_seq : int;  (* WAL slots folded in (applied or consumed) *)
  mutable arcs : int;  (* live arcs *)
}

let empty_base n = Csr.of_digraph (Digraph.create n)

let create ?(refreeze = Rebuild) ~n ~seed () =
  if n < 1 then invalid_arg "Stream_sketch.create: n must be positive";
  (match refreeze with
  | Delta_buffer { compact_threshold } when compact_threshold < 1 ->
      invalid_arg "Stream_sketch.create: compact_threshold must be positive"
  | _ -> ());
  (* The sampler hash family is a pure function of (seed, n), so a
     recovered state rebuilt from the same pair is sampler-compatible
     with — and, being linear, byte-equal in state to — the lost one. *)
  let rng = Prng.create seed in
  {
    n;
    seed;
    refreeze;
    delta = Csr.delta_of (empty_base n);
    frozen = None;
    imb = Array.make n 0.0;
    support =
      L0_sampler.create_family ~nonnegative:true rng ~universe:(n * n)
        ~count:copies;
    applied_seq = 0;
    arcs = 0;
  }

let n t = t.n
let seed t = t.seed
let refreeze_policy t = t.refreeze
let applied_seq t = t.applied_seq
let arcs t = t.arcs
let delta_pairs t = Csr.delta_pairs t.delta
let edge_weight t u v = Csr.delta_weight t.delta u v
let imbalances t = Array.copy t.imb

let compact_now t =
  Metrics.inc m_compactions;
  let base = Csr.compact t.delta in
  t.delta <- Csr.delta_of base;
  t.frozen <- Some base;
  base

let frozen t =
  match t.frozen with
  | Some c -> c
  | None ->
      if Csr.delta_pairs t.delta = 0 then begin
        let base = Csr.delta_base t.delta in
        t.frozen <- Some base;
        base
      end
      else compact_now t

let fingerprint t = Csr.fingerprint (frozen t)

let cut_weight t mem =
  Metrics.inc m_cut_queries;
  (* Hot path: never forces a freeze — one base scan plus O(overlay). *)
  if Csr.delta_pairs t.delta = 0 then Csr.cut_weight (Csr.delta_base t.delta) mem
  else Csr.delta_cut_weight t.delta mem

let cut_value t c =
  if Cut.n c <> t.n then invalid_arg "Stream_sketch.cut_value: size mismatch";
  cut_weight t (Cut.mem c)

let check t ~op ~u ~v ~w =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    Some (Out_of_range { u; v; n = t.n })
  else if u = v then Some (Self_loop u)
  else if not (Float.is_finite w) || w <= 0.0 then Some (Bad_weight w)
  else
    match op with
    | Wal.Insert -> None
    | Wal.Delete ->
        let have = edge_weight t u v in
        if have < w then Some (Below_zero { u; v; have; requested = w })
        else None

(* The one mutation point. Presence toggles drive the support samplers:
   +1 when an arc's weight leaves zero, -1 when it returns exactly to
   zero. With weights whose sums are exact in floating point (integers,
   dyadic rationals — the convention all enforced batteries use), the
   toggle decisions are exact and the sampler state is a linear function
   of the net arc multiset, which is what makes snapshot-restore + replay
   reproduce it byte for byte. *)
let mutate t ~op ~u ~v ~w =
  let before = edge_weight t u v in
  let signed = match op with Wal.Insert -> w | Wal.Delete -> -.w in
  Csr.delta_add t.delta u v signed;
  let after = before +. signed in
  t.imb.(u) <- t.imb.(u) +. signed;
  t.imb.(v) <- t.imb.(v) -. signed;
  let idx = (u * t.n) + v in
  if before = 0.0 && after > 0.0 then begin
    Array.iter (fun s -> L0_sampler.update s idx 1) t.support;
    t.arcs <- t.arcs + 1
  end
  else if before > 0.0 && after = 0.0 then begin
    Array.iter (fun s -> L0_sampler.update s idx (-1)) t.support;
    t.arcs <- t.arcs - 1
  end;
  t.frozen <- None

let apply_unchecked t ~op ~u ~v ~w =
  mutate t ~op ~u ~v ~w;
  (match op with
  | Wal.Insert -> Metrics.inc m_inserts
  | Wal.Delete -> Metrics.inc m_deletes);
  match t.refreeze with
  | Rebuild -> ignore (compact_now t)
  | Delta_buffer { compact_threshold } ->
      (* Forced compaction under memory pressure: the overlay never holds
         more than the threshold's worth of adjusted arcs. *)
      if Csr.delta_pairs t.delta > compact_threshold then
        ignore (compact_now t)

let apply t ~op ~u ~v ~w =
  match check t ~op ~u ~v ~w with
  | Some r ->
      Metrics.inc m_rejects;
      Error (pp_reject r)
  | None ->
      apply_unchecked t ~op ~u ~v ~w;
      Ok ()

let insert t ~u ~v ~w =
  match check t ~op:Wal.Insert ~u ~v ~w with
  | Some r ->
      Metrics.inc m_rejects;
      raise (Rejected r)
  | None -> apply_unchecked t ~op:Wal.Insert ~u ~v ~w

let delete t ~u ~v ~w =
  match check t ~op:Wal.Delete ~u ~v ~w with
  | Some r ->
      Metrics.inc m_rejects;
      raise (Rejected r)
  | None -> apply_unchecked t ~op:Wal.Delete ~u ~v ~w

let sample_arc t =
  let rec go i =
    if i >= copies then None
    else
      match L0_sampler.query t.support.(i) with
      | Some (idx, _) -> Some (idx / t.n, idx mod t.n)
      | None -> go (i + 1)
  in
  go 0

(* --- derived sketches: always from the canonical frozen view, so a
   streamed state and a batch build of the same graph hand the identical
   content (and construction history) to the samplers. --- *)

let to_digraph t = Csr.to_digraph (frozen t)

let exact_sketch t = Exact_sketch.create (to_digraph t)

let imbalance_sketch ?c t rng ~eps ~beta =
  Imbalance_sketch.of_imbalances ?c rng ~eps ~beta ~imb:(Array.copy t.imb)
    (Ugraph.of_digraph (to_digraph t))

(* --- state digest --- *)

let digest t =
  let mix = Prng.mix64 in
  let h = ref (mix (Int64.of_int t.applied_seq)) in
  let fold i64 = h := mix (Int64.logxor !h i64) in
  fold (Csr.fingerprint (if Csr.delta_pairs t.delta = 0 then Csr.delta_base t.delta else Csr.compact t.delta));
  Array.iter (fun x -> fold (Int64.bits_of_float x)) t.imb;
  Array.iter (fun s -> fold (L0_sampler.digest s)) t.support;
  fold (Int64.of_int t.arcs);
  !h

(* --- checkpoint-compacted snapshots --- *)

let signature t =
  Printf.sprintf "stream-sketch v1 n=%d seed=%d copies=%d" t.n t.seed copies

let encode_edges csr =
  let buf = Buffer.create 4096 in
  for u = 0 to Csr.n csr - 1 do
    Csr.iter_out csr u (fun v w ->
        Buffer.add_string buf (Printf.sprintf "%d %d %h\n" u v w))
  done;
  Buffer.contents buf

let checkpoint t ~path =
  let base = frozen t in
  Checkpoint.save ~path ~signature:(signature t)
    [
      { Checkpoint.index = 0; payload = string_of_int t.applied_seq };
      { Checkpoint.index = 1; payload = encode_edges base };
    ];
  Metrics.inc m_checkpoint_saves

exception Restore_failed of string

let restore_snapshot t ~path =
  if not (Sys.file_exists path) then 0
  else
    match Checkpoint.load ~path ~signature:(signature t) with
    | Error e -> raise (Restore_failed e)
    | Ok [ { Checkpoint.index = 0; payload = seq }; { index = 1; payload = edges } ] ->
        let applied_seq =
          match int_of_string_opt seq with
          | Some s when s >= 0 -> s
          | _ -> raise (Restore_failed "checkpoint: unparsable applied_seq")
        in
        (* Raw mutations: snapshot edges are prior state, not stream
           events — they must not bump the insert counters or trigger a
           compaction per edge. One compaction at the end re-freezes the
           restored content canonically. *)
        String.split_on_char '\n' edges
        |> List.iter (fun line ->
               if line <> "" then
                 match String.split_on_char ' ' line with
                 | [ u; v; w ] -> (
                     match
                       ( int_of_string_opt u,
                         int_of_string_opt v,
                         float_of_string_opt w )
                     with
                     | Some u, Some v, Some w when u >= 0 && u < t.n && v >= 0
                                                   && v < t.n && u <> v
                                                   && Float.is_finite w
                                                   && w > 0.0 ->
                         mutate t ~op:Wal.Insert ~u ~v ~w
                     | _ -> raise (Restore_failed "checkpoint: unparsable edge"))
                 | _ -> raise (Restore_failed "checkpoint: bad edge line"));
        if Csr.delta_pairs t.delta > 0 then ignore (compact_now t);
        t.applied_seq <- applied_seq;
        applied_seq
    | Ok _ -> raise (Restore_failed "checkpoint: unexpected record shape")

type recovery = {
  state : t;
  report : Wal.replay_report;
  snapshot_seq : int;  (* floor restored from the snapshot (0 if none) *)
}

let recover ?refreeze ~n ~seed ~snapshot ~wal () =
  let t = create ?refreeze ~n ~seed () in
  match restore_snapshot t ~path:snapshot with
  | exception Restore_failed e -> Error e
  | snapshot_seq -> (
      match Wal.scan_file ~path:wal with
      | Error e -> Error e
      | Ok scan ->
          let report =
            Wal.replay ~base_seq:snapshot_seq
              ~apply:(fun r -> apply t ~op:r.Wal.op ~u:r.Wal.u ~v:r.Wal.v ~w:r.Wal.w)
              scan
          in
          t.applied_seq <- report.Wal.last_seq;
          Metrics.inc m_recoveries;
          Ok { state = t; report; snapshot_seq })

(* --- WAL-backed live ingest --- *)

type journal = {
  state : t;
  mutable writer : Wal.writer;
  snapshot_path : string;
  wal_path : string;
  every : int;
  mutable since_checkpoint : int;
}

let journal_paths ~dir = (Filename.concat dir "snapshot.ckpt", Filename.concat dir "wal.log")

let journal_checkpoint j =
  checkpoint j.state ~path:j.snapshot_path;
  (* The snapshot now covers every logged record: the log is redundant and
     restarts from empty, with the sequence numbering continuing. *)
  Wal.close_writer j.writer;
  j.writer <-
    Wal.create_writer ~truncate:true ~path:j.wal_path
      ~next_seq:(j.state.applied_seq + 1) ();
  j.since_checkpoint <- 0

let open_journal ?refreeze ?(checkpoint_every = 0) ~dir ~n ~seed () =
  if checkpoint_every < 0 then
    invalid_arg "Stream_sketch.open_journal: negative checkpoint_every";
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let snapshot_path, wal_path = journal_paths ~dir in
  match recover ?refreeze ~n ~seed ~snapshot:snapshot_path ~wal:wal_path () with
  | Error e -> Error e
  | Ok { state; report; _ } ->
      (* Fold the surviving replay into a fresh snapshot and truncate the
         log: a torn or damaged tail must not sit in front of new appends,
         and recovery is the natural compaction point. *)
      let j =
        {
          state;
          writer =
            Wal.create_writer ~truncate:false ~path:wal_path
              ~next_seq:(state.applied_seq + 1) ();
          snapshot_path;
          wal_path;
          every = checkpoint_every;
          since_checkpoint = 0;
        }
      in
      journal_checkpoint j;
      Ok (j, report)

let journal_state j = j.state

let journal_apply j op ~u ~v ~w =
  (* Write-ahead: the record is durable (and its sequence slot consumed)
     before the state mutates, so a kill at any boundary replays cleanly
     and a rejected op is visible in the log's accounting, never lost. *)
  let r = Wal.append j.writer op ~u ~v ~w in
  let result = apply j.state ~op ~u ~v ~w in
  j.state.applied_seq <- r.Wal.seq;
  (match result with
  | Ok () ->
      j.since_checkpoint <- j.since_checkpoint + 1;
      if j.every > 0 && j.since_checkpoint >= j.every then journal_checkpoint j
  | Error _ -> ());
  result

let journal_insert j ~u ~v ~w = journal_apply j Wal.Insert ~u ~v ~w
let journal_delete j ~u ~v ~w = journal_apply j Wal.Delete ~u ~v ~w

let close_journal j = Wal.close_writer j.writer
