module Prng = Dcs_util.Prng
module Checkpoint = Dcs_util.Checkpoint
module Metrics = Dcs_obs_core.Metrics
module Digraph = Dcs_graph.Digraph
module Csr = Dcs_graph.Csr
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

(* One live graph. [live] takes every mutation in place;
   [frozen] is [Csr.of_digraph live] as of the last compaction, and [stale]
   maps each arc whose live weight has drifted from [frozen] to its frozen
   weight, so an arc that returns to that weight leaves the set. *)
type t = {
  n : int;
  seed : int;
  refreeze : refreeze;
  live : Digraph.t;
  mutable frozen : Csr.t;
  stale : (int, float) Hashtbl.t;  (* key u*n+v -> weight in [frozen] *)
  mutable applied_seq : int;  (* WAL slots folded in (applied or consumed) *)
}

let create ?(refreeze = Rebuild) ~n ~seed () =
  if n < 1 then invalid_arg "Stream_sketch.create: n must be positive";
  (match refreeze with
  | Delta_buffer { compact_threshold } when compact_threshold < 1 ->
      invalid_arg "Stream_sketch.create: compact_threshold must be positive"
  | _ -> ());
  let live = Digraph.create n in
  {
    n;
    seed;
    refreeze;
    live;
    frozen = Csr.of_digraph live;
    stale = Hashtbl.create 64;
    applied_seq = 0;
  }

let applied_seq t = t.applied_seq
let arcs t = Digraph.m t.live
let delta_pairs t = Hashtbl.length t.stale
let imbalances t = Imbalance_sketch.imbalances t.live

let compact_now t =
  Metrics.inc m_compactions;
  t.frozen <- Csr.of_digraph t.live;
  Hashtbl.clear t.stale;
  t.frozen

let frozen t = if Hashtbl.length t.stale = 0 then t.frozen else compact_now t
let fingerprint t = Csr.fingerprint (frozen t)

let cut_value t c =
  Metrics.inc m_cut_queries;
  Csr.cut_value (frozen t) c

let check t ~op ~u ~v ~w =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    Some (Out_of_range { u; v; n = t.n })
  else if u = v then Some (Self_loop u)
  else if not (Float.is_finite w) || w <= 0.0 then Some (Bad_weight w)
  else
    match op with
    | Wal.Insert -> None
    | Wal.Delete ->
        let have = Digraph.weight t.live u v in
        if have < w then Some (Below_zero { u; v; have; requested = w })
        else None

(* The one mutation point, for checked ops only. *)
let mutate t ~op ~u ~v ~w =
  let before = Digraph.weight t.live u v in
  let after = match op with Wal.Insert -> before +. w | Wal.Delete -> before -. w in
  Digraph.set_edge t.live u v after;
  let key = (u * t.n) + v in
  match Hashtbl.find_opt t.stale key with
  | None -> Hashtbl.replace t.stale key before
  | Some fw -> if after = fw then Hashtbl.remove t.stale key

(* A rejection is metered and mutates nothing. *)
let validate t ~op ~u ~v ~w =
  match check t ~op ~u ~v ~w with
  | None -> Ok ()
  | Some r ->
      Metrics.inc m_rejects;
      Error (pp_reject r)

(* Mutate a validated op, then re-freeze on the policy's schedule. *)
let commit t ~op ~u ~v ~w =
  mutate t ~op ~u ~v ~w;
  Metrics.inc (match op with Wal.Insert -> m_inserts | Wal.Delete -> m_deletes);
  match t.refreeze with
  | Rebuild -> ignore (compact_now t)
  | Delta_buffer { compact_threshold } ->
      if Hashtbl.length t.stale > compact_threshold then ignore (compact_now t)

let apply t ~op ~u ~v ~w =
  Result.map (fun () -> commit t ~op ~u ~v ~w) (validate t ~op ~u ~v ~w)

(* --- derived sketches: always from the canonical frozen view, so a
   streamed state and a batch build of the same graph hand the identical
   content (and construction history) to the samplers. --- *)

let to_digraph t = Csr.to_digraph (frozen t)
let exact_sketch t = Exact_sketch.create (to_digraph t)

let imbalance_sketch t rng ~eps ~beta = Imbalance_sketch.create rng ~eps ~beta (to_digraph t)

(* --- state digest --- *)

let digest t =
  let mix = Prng.mix64 in
  let h = ref (mix (Int64.of_int t.applied_seq)) in
  let fold i64 = h := mix (Int64.logxor !h i64) in
  (* A throwaway freeze when stale: the digest moves no stream.* counter. *)
  fold
    (Csr.fingerprint
       (if Hashtbl.length t.stale = 0 then t.frozen else Csr.of_digraph t.live));
  fold (Int64.of_int (arcs t));
  !h

(* --- checkpoint-compacted snapshots --- *)

let signature t =
  Printf.sprintf "stream-sketch v1 n=%d seed=%d" t.n t.seed

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
                 match Scanf.sscanf_opt line "%d %d %h%!" (fun u v w -> (u, v, w)) with
                 | None -> raise (Restore_failed "checkpoint: unparsable edge")
                 | Some (u, v, w) -> (
                     match check t ~op:Wal.Insert ~u ~v ~w with
                     | None -> mutate t ~op:Wal.Insert ~u ~v ~w
                     | Some r -> raise (Restore_failed ("checkpoint: " ^ pp_reject r))));
        if Hashtbl.length t.stale > 0 then ignore (compact_now t);
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
  (* Validate first, so a rejected op never reaches the log. Then
     write-ahead: the record is durable before the state mutates, so a
     kill at any boundary replays cleanly. *)
  Result.map
    (fun () ->
      let r = Wal.append j.writer op ~u ~v ~w in
      commit j.state ~op ~u ~v ~w;
      j.state.applied_seq <- r.Wal.seq;
      j.since_checkpoint <- j.since_checkpoint + 1;
      if j.every > 0 && j.since_checkpoint >= j.every then journal_checkpoint j)
    (validate j.state ~op ~u ~v ~w)

let journal_insert j ~u ~v ~w = journal_apply j Wal.Insert ~u ~v ~w
let journal_delete j ~u ~v ~w = journal_apply j Wal.Delete ~u ~v ~w

let close_journal j = Wal.close_writer j.writer
