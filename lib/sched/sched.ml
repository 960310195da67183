(* DAG experiment scheduler with a content-addressed artifact store.
   See sched.mli for the model and the determinism contract. *)

module Metrics = Dcs_obs_core.Metrics
module Trace = Dcs_obs_core.Trace
module Prng = Dcs_util.Prng
module Pool = Dcs_util.Pool
module Checkpoint = Dcs_util.Checkpoint
module Checksum = Dcs_util.Checksum

let c_dag_runs = Metrics.counter "sched.dag_runs"
let c_offered = Metrics.counter "sched.stages_offered"
let c_hits = Metrics.counter "sched.cache_hits"
let c_runs = Metrics.counter "sched.stage_runs"

module Store = struct
  let c_puts = Metrics.counter "sched.store_puts"
  let c_spills = Metrics.counter "sched.store_spills"
  let c_mem_hits = Metrics.counter "sched.store_mem_hits"
  let c_disk_hits = Metrics.counter "sched.store_disk_hits"
  let c_misses = Metrics.counter "sched.store_misses"
  let c_corrupt = Metrics.counter "sched.store_corrupt_rejected"

  type t = { tbl : (string, string) Hashtbl.t; dir : string option }

  let rec mkdir_p d =
    if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
    else begin
      mkdir_p (Filename.dirname d);
      try Sys.mkdir d 0o777
      with Sys_error _ when Sys.file_exists d -> ()
    end

  let create ?dir () =
    Option.iter mkdir_p dir;
    { tbl = Hashtbl.create 64; dir }

  (* Chained SplitMix64 finalizer over the bytes (8 bytes per step, the
     tail and the length folded in last) plus the payload's CRC-32: 96
     bits rendered as 24 hex chars, filename-safe. The same mixer every
     other fingerprint in the library chains ([Prng.mix64]). *)
  let content_hash s =
    let len = String.length s in
    let h = ref 0x9e3779b97f4a7c15L in
    let i = ref 0 in
    while !i + 8 <= len do
      h := Prng.mix64 (Int64.logxor !h (String.get_int64_le s !i));
      i := !i + 8
    done;
    let tail = ref 0L in
    let shift = ref 0 in
    while !i < len do
      tail :=
        Int64.logor !tail
          (Int64.shift_left (Int64.of_int (Char.code s.[!i])) !shift);
      shift := !shift + 8;
      incr i
    done;
    h := Prng.mix64 (Int64.logxor !h !tail);
    h := Prng.mix64 (Int64.logxor !h (Int64.of_int len));
    Printf.sprintf "%016Lx%08x" !h (Checksum.crc32 s)

  let action_key ~name ~code ~fingerprint ~inputs =
    let buf = Buffer.create 128 in
    let field s = Buffer.add_string buf s; Buffer.add_char buf '\x00' in
    field name;
    field code;
    field (Printf.sprintf "%016Lx" fingerprint);
    List.iter field inputs;
    content_hash (Buffer.contents buf)

  let artifact_path t key =
    match t.dir with
    | None -> invalid_arg "Sched.Store.artifact_path: store has no disk tier"
    | Some d -> Filename.concat d (key ^ ".art")

  let put t key bytes =
    Metrics.inc c_puts;
    if not (Hashtbl.mem t.tbl key) then begin
      (match t.dir with
       | Some _ ->
         Checkpoint.save ~path:(artifact_path t key) ~signature:key
           [ { Checkpoint.index = 0; payload = bytes } ];
         Metrics.inc c_spills
       | None -> ());
      Hashtbl.add t.tbl key bytes
    end

  let find t key =
    match Hashtbl.find_opt t.tbl key with
    | Some bytes ->
      Metrics.inc c_mem_hits;
      Some bytes
    | None ->
      (match t.dir with
       | None ->
         Metrics.inc c_misses;
         None
       | Some _ ->
         let path = artifact_path t key in
         if not (Sys.file_exists path) then begin
           Metrics.inc c_misses;
           None
         end
         else begin
           match Checkpoint.load ~path ~signature:key with
           | Ok [ { Checkpoint.index = 0; payload } ] ->
             Metrics.inc c_disk_hits;
             Hashtbl.add t.tbl key payload;
             Some payload
           | Ok _ | Error _ ->
             (* Damaged, truncated, torn or foreign: reject, recompute.
                The fresh put repairs the file. *)
             Metrics.inc c_corrupt;
             None
         end)

  let entries t = Hashtbl.length t.tbl
end

type 'a codec = { encode : 'a -> string; decode : string -> 'a option }

let marshal_codec () =
  { encode = (fun v -> Marshal.to_string v []);
    decode =
      (fun s ->
        match Marshal.from_string s 0 with
        | v -> Some v
        | exception _ -> None) }

type mode = Pooled | Serial

type result_rec = {
  r_bytes : string;
  r_hash : string;
  r_key : string;
  r_cached : bool;
}

type boxed = {
  b_id : int;
  b_name : string;
  b_fp : int64;
  b_mode : mode;
  b_deps : int array;
  b_run : unit -> string;
  mutable b_result : result_rec option;
}

type t = {
  dag_id : int;
  dag_store : Store.t;
  mutable nodes_rev : boxed list;
  mutable n_nodes : int;
  identities : (string * int64, unit) Hashtbl.t;
  mutable dag_ran : bool;
}

type 'a node = {
  nd_dag : int;
  nd_name : string;
  nd_codec : 'a codec;
  nd_boxed : boxed;
  mutable nd_memo : 'a option;
}

type packed = { p_dag : int; p_id : int }

let dag_counter = ref 0

let create ?store () =
  let dag_store = match store with Some s -> s | None -> Store.create () in
  incr dag_counter;
  { dag_id = !dag_counter; dag_store; nodes_rev = []; n_nodes = 0;
    identities = Hashtbl.create 64; dag_ran = false }

let dep node = { p_dag = node.nd_dag; p_id = node.nd_boxed.b_id }

let stage dag ~name ?(fingerprint = 0L) ?(mode = Pooled) ~codec ~deps thunk =
  if dag.dag_ran then invalid_arg "Sched.stage: DAG has already run";
  if name = "" then invalid_arg "Sched.stage: empty stage name";
  let identity = (name, fingerprint) in
  if Hashtbl.mem dag.identities identity then
    invalid_arg
      (Printf.sprintf
         "Sched.stage: duplicate stage %S (fingerprint %016Lx) — share the \
          node instead of redeclaring it"
         name fingerprint);
  Hashtbl.add dag.identities identity ();
  let b_deps =
    Array.of_list
      (List.map
         (fun p ->
           if p.p_dag <> dag.dag_id then
             invalid_arg
               (Printf.sprintf
                  "Sched.stage: %S depends on a node from a different DAG"
                  name);
           p.p_id)
         deps)
  in
  let boxed =
    { b_id = dag.n_nodes; b_name = name; b_fp = fingerprint; b_mode = mode;
      b_deps; b_run = (fun () -> codec.encode (thunk ())); b_result = None }
  in
  dag.nodes_rev <- boxed :: dag.nodes_rev;
  dag.n_nodes <- dag.n_nodes + 1;
  { nd_dag = dag.dag_id; nd_name = name; nd_codec = codec;
    nd_boxed = boxed; nd_memo = None }

let check_dag fname dag node =
  if node.nd_dag <> dag.dag_id then
    invalid_arg (fname ^ ": node belongs to a different DAG")

let value dag node =
  check_dag "Sched.value" dag node;
  match node.nd_memo with
  | Some v -> v
  | None ->
    (match node.nd_boxed.b_result with
     | None ->
       failwith
         (Printf.sprintf
            "Sched.value: stage %S has not been computed — declare it in \
             deps, or run the DAG first"
            node.nd_name)
     | Some r ->
       (match node.nd_codec.decode r.r_bytes with
        | Some v ->
          node.nd_memo <- Some v;
          v
        | None ->
          failwith
            (Printf.sprintf
               "Sched.value: artifact of stage %S does not decode"
               node.nd_name)))

let result_of fname dag node =
  check_dag fname dag node;
  match node.nd_boxed.b_result with
  | Some r -> r
  | None ->
    failwith
      (Printf.sprintf "%s: stage %S has not been computed" fname node.nd_name)

let from_cache dag node = (result_of "Sched.from_cache" dag node).r_cached
let artifact_bytes dag node = (result_of "Sched.artifact_bytes" dag node).r_bytes
let key_of dag node = (result_of "Sched.key_of" dag node).r_key

type report = {
  stages : int;
  offered : int;
  hits : int;
  ran : int;
  pooled_ran : int;
  serial_ran : int;
  levels : int;
}

(* The running executable's digest, read once per process: a rebuilt
   binary never reads artifacts an older one wrote, whatever changed in
   between (a stage's code, an artifact's type or layout). *)
let code_digest = lazy (Digest.to_hex (Digest.file Sys.executable_name))

let run dag =
  if dag.dag_ran then invalid_arg "Sched.run: DAG has already run";
  dag.dag_ran <- true;
  let code = Lazy.force code_digest in
  Metrics.inc c_dag_runs;
  let nodes = Array.of_list (List.rev dag.nodes_rev) in
  let n = Array.length nodes in
  (* Declaration order is a topological order (deps must pre-exist);
     level = longest path from a source, so a level's members have all
     their inputs completed and are mutually independent. *)
  let level = Array.make n 0 in
  Array.iteri
    (fun i b ->
      level.(i) <-
        1 + Array.fold_left (fun acc d -> max acc level.(d)) (-1) b.b_deps)
    nodes;
  let max_level = Array.fold_left max (-1) level in
  let offered = ref 0 and hits = ref 0 and ran_count = ref 0 in
  let pooled_ran = ref 0 and serial_ran = ref 0 in
  let key_of_boxed b =
    let inputs =
      Array.to_list
        (Array.map
           (fun d ->
             match nodes.(d).b_result with
             | Some r -> r.r_hash
             | None -> assert false)
           b.b_deps)
    in
    Store.action_key ~name:b.b_name ~code ~fingerprint:b.b_fp ~inputs
  in
  let complete ~cached b key bytes =
    if cached then begin
      Metrics.inc c_hits;
      incr hits
    end
    else begin
      Metrics.inc c_runs;
      incr ran_count;
      Store.put dag.dag_store key bytes
    end;
    b.b_result <-
      Some { r_bytes = bytes; r_hash = Store.content_hash bytes;
             r_key = key; r_cached = cached }
  in
  Trace.with_span "sched.run" (fun () ->
      for l = 0 to max_level do
        let members = ref [] in
        for i = n - 1 downto 0 do
          if level.(i) = l then members := i :: !members
        done;
        (* Probe the store for the whole level first, then run only the
           misses: pooled members fan out together, serial members follow
           one by one in this domain once the pool has joined. *)
        let pending =
          List.filter_map
            (fun i ->
              let b = nodes.(i) in
              let key = key_of_boxed b in
              Metrics.inc c_offered;
              incr offered;
              match Store.find dag.dag_store key with
              | Some bytes ->
                complete ~cached:true b key bytes;
                None
              | None -> Some (b, key))
            !members
        in
        let pooled = List.filter (fun (b, _) -> b.b_mode = Pooled) pending in
        let serial = List.filter (fun (b, _) -> b.b_mode = Serial) pending in
        (match pooled with
         | [] -> ()
         | _ ->
           let arr = Array.of_list pooled in
           let results =
             Pool.parallel_init ~n:(Array.length arr) (fun p ->
                 let b, _ = arr.(p) in
                 Trace.with_span ("sched.stage:" ^ b.b_name) b.b_run)
           in
           Array.iteri
             (fun p bytes ->
               let b, key = arr.(p) in
               complete ~cached:false b key bytes;
               incr pooled_ran)
             results);
        List.iter
          (fun (b, key) ->
            let bytes = Trace.with_span ("sched.stage:" ^ b.b_name) b.b_run in
            complete ~cached:false b key bytes;
            incr serial_ran)
          serial
      done);
  { stages = n; offered = !offered; hits = !hits; ran = !ran_count;
    pooled_ran = !pooled_ran; serial_ran = !serial_ran;
    levels = max_level + 1 }
