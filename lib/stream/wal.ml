module Checksum = Dcs_util.Checksum
module Fault = Dcs_util.Fault
module Metrics = Dcs_obs_core.Metrics

(* Registry funnel (E22 cross-checks these against replay reports): all
   pure event counts, bumped from the single ingest thread, so snapshots
   are byte-identical at every DCS_DOMAINS. *)
let m_appends = Metrics.counter "stream.wal_appends"
let m_offered = Metrics.counter "stream.wal_offered"
let m_applied = Metrics.counter "stream.wal_applied"
let m_duplicates = Metrics.counter "stream.wal_duplicates"
let m_stale = Metrics.counter "stream.wal_stale"
let m_quarantined = Metrics.counter "stream.wal_quarantined"
let m_torn = Metrics.counter "stream.wal_torn"
let m_corrupt = Metrics.counter "stream.wal_corrupt"
let m_gaps = Metrics.counter "stream.wal_gaps"
let m_bad_ops = Metrics.counter "stream.wal_bad_ops"

type op = Insert | Delete

type record = { seq : int; op : op; u : int; v : int; w : float }

let magic = "DCSW1"

let op_char = function Insert -> 'I' | Delete -> 'D'

(* The CRC covers exactly this canonical body; the weight travels as a
   lossless hexadecimal float ("%h"), so decode·encode is the identity on
   the doubles as well as the text. *)
let body r =
  Printf.sprintf "%d %c %d %d %h" r.seq (op_char r.op) r.u r.v r.w

let encode r = Printf.sprintf "%s %08x %s\n" magic (Checksum.crc32 (body r)) (body r)

let decode line =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.index_opt line ' ' with
  | None -> fail "record: missing fields"
  | Some sp1 -> (
      if String.sub line 0 sp1 <> magic then fail "record: bad magic"
      else
        match String.index_from_opt line (sp1 + 1) ' ' with
        | None -> fail "record: missing body"
        | Some sp2 ->
            let crc = String.sub line (sp1 + 1) (sp2 - sp1 - 1) in
            let b = String.sub line (sp2 + 1) (String.length line - sp2 - 1) in
            (* Canonical-rendering comparison, as in Checksum.unframe: hex
               parsing is case-insensitive, so a bit flip in the CRC field
               itself must not slip through. *)
            if Printf.sprintf "%08x" (Checksum.crc32 b) <> crc then
              fail "record: crc mismatch (expected %s, actual %08x)" crc
                (Checksum.crc32 b)
            else
              (match String.split_on_char ' ' b with
              | [ seq; opf; u; v; w ] -> (
                  match
                    ( int_of_string_opt seq,
                      opf,
                      int_of_string_opt u,
                      int_of_string_opt v,
                      float_of_string_opt w )
                  with
                  | Some seq, ("I" | "D"), Some u, Some v, Some w ->
                      let op = if opf = "I" then Insert else Delete in
                      let r = { seq; op; u; v; w } in
                      if seq < 1 then fail "record: sequence %d < 1" seq
                      else if u < 0 || v < 0 then
                        fail "record: negative vertex"
                      else if not (Float.is_finite w) || w <= 0.0 then
                        fail "record: weight must be positive and finite"
                      else if encode r <> line ^ "\n" then
                        fail "record: non-canonical rendering"
                      else Ok r
                  | _ -> fail "record: unparsable fields")
              | _ -> fail "record: wrong field count"))

(* --- scanning --- *)

type damage =
  | Corrupt of { line : int; offset : int; reason : string }
  | Torn of { offset : int; bytes : int }

type scan = { records : record list; damaged : damage list; units : int }

let scan_string s =
  let len = String.length s in
  let records = ref [] and damaged = ref [] in
  let units = ref 0 in
  let pos = ref 0 and line_no = ref 0 in
  let continue = ref true in
  while !continue do
    match String.index_from_opt s !pos '\n' with
    | Some nl ->
        incr units;
        (match decode (String.sub s !pos (nl - !pos)) with
        | Ok r -> records := r :: !records
        | Error reason ->
            damaged := Corrupt { line = !line_no; offset = !pos; reason } :: !damaged);
        pos := nl + 1;
        incr line_no
    | None ->
        if !pos < len then begin
          incr units;
          damaged := Torn { offset = !pos; bytes = len - !pos } :: !damaged
        end;
        continue := false
  done;
  { records = List.rev !records; damaged = List.rev !damaged; units = !units }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan_file ~path =
  if not (Sys.file_exists path) then
    Ok { records = []; damaged = []; units = 0 }
  else
    match read_file path with
    | raw -> Ok (scan_string raw)
    | exception Sys_error e -> Error ("wal: " ^ e)

(* --- replay --- *)

type quarantine =
  | Damaged of damage
  | Gap of { seq : int; expected : int }
  | Bad_op of { record : record; reason : string }

type replay_report = {
  offered : int;
  applied : int;
  duplicates : int;
  stale : int;
  quarantined : quarantine list;
  last_seq : int;
}

let pp_quarantine = function
  | Damaged (Corrupt { line; offset; reason }) ->
      Printf.sprintf "corrupt record (line %d, byte offset %d): %s" line offset
        reason
  | Damaged (Torn { offset; bytes }) ->
      Printf.sprintf "torn tail (%d bytes at offset %d)" bytes offset
  | Gap { seq; expected } ->
      Printf.sprintf "gap: seq %d arrived while %d is still missing" seq
        expected
  | Bad_op { record; reason } ->
      Printf.sprintf "rejected op (seq %d): %s" record.seq reason

let replay ~base_seq ~apply scan =
  let applied = ref 0 and duplicates = ref 0 and stale = ref 0 in
  let quarantined = ref [] in
  let expected = ref (base_seq + 1) in
  let gap_found = ref false in
  let ordered = List.stable_sort (fun a b -> compare a.seq b.seq) scan.records in
  List.iter
    (fun r ->
      if !gap_found then
        quarantined := Gap { seq = r.seq; expected = !expected } :: !quarantined
      else if r.seq <= base_seq then incr stale
      else if r.seq < !expected then incr duplicates
      else if r.seq = !expected then begin
        (match apply r with
        | Ok () -> incr applied
        | Error reason ->
            quarantined := Bad_op { record = r; reason } :: !quarantined);
        (* A rejected op still consumes its sequence slot: the writer
           durably assigned it, so later records do not depend on it. *)
        incr expected
      end
      else begin
        gap_found := true;
        quarantined := Gap { seq = r.seq; expected = !expected } :: !quarantined
      end)
    ordered;
  List.iter
    (fun d ->
      (match d with
      | Corrupt _ -> Metrics.inc m_corrupt
      | Torn _ -> Metrics.inc m_torn);
      quarantined := Damaged d :: !quarantined)
    scan.damaged;
  let quarantined = List.rev !quarantined in
  let gaps =
    List.length (List.filter (function Gap _ -> true | _ -> false) quarantined)
  in
  let bad_ops =
    List.length
      (List.filter (function Bad_op _ -> true | _ -> false) quarantined)
  in
  Metrics.inc ~by:scan.units m_offered;
  Metrics.inc ~by:!applied m_applied;
  Metrics.inc ~by:!duplicates m_duplicates;
  Metrics.inc ~by:!stale m_stale;
  Metrics.inc ~by:(List.length quarantined) m_quarantined;
  Metrics.inc ~by:gaps m_gaps;
  Metrics.inc ~by:bad_ops m_bad_ops;
  {
    offered = scan.units;
    applied = !applied;
    duplicates = !duplicates;
    stale = !stale;
    quarantined;
    last_seq = !expected - 1;
  }

(* --- writer --- *)

type writer = { oc : out_channel; mutable next : int }

let create_writer ?(truncate = false) ~path ~next_seq () =
  if next_seq < 1 then invalid_arg "Wal.create_writer: next_seq must be >= 1";
  let flags =
    [ Open_wronly; Open_creat; Open_binary ]
    @ if truncate then [ Open_trunc ] else [ Open_append ]
  in
  { oc = open_out_gen flags 0o644 path; next = next_seq }

let append t op ~u ~v ~w =
  if u < 0 || v < 0 then invalid_arg "Wal.append: negative vertex";
  if not (Float.is_finite w) || w <= 0.0 then
    invalid_arg "Wal.append: weight must be positive and finite";
  let r = { seq = t.next; op; u; v; w } in
  output_string t.oc (encode r);
  (* Flushed whole: a kill between appends leaves only complete records,
     and a kill mid-append tears at the tail — never in the middle. *)
  flush t.oc;
  t.next <- t.next + 1;
  Metrics.inc m_appends;
  r

let close_writer t = close_out_noerr t.oc

(* --- deterministic damage --- *)

module Adversary = struct
  type injections = {
    dropped : int;
    corrupted : int;
    duplicated : int;
    reordered : int;
  }

  (* Flip one bit of a line, never touching the trailing newline and never
     producing one: damage must stay confined to its own frame so the
     scan-level accounting of the chaos battery stays exact. *)
  let flip_bit f line =
    let payload_bytes = String.length line - 1 in
    let k = Fault.draw_int f (payload_bytes * 8) in
    let i = k / 8 and b = k mod 8 in
    let bytes = Bytes.of_string line in
    let flipped bit = Char.chr (Char.code line.[i] lxor (1 lsl bit)) in
    let c = if flipped b = '\n' then flipped ((b + 1) mod 8) else flipped b in
    Bytes.set bytes i c;
    Bytes.to_string bytes

  let mangle f records =
    let buf = Buffer.create 1024 in
    let dropped = ref 0 and corrupted = ref 0 in
    let duplicated = ref 0 and reordered = ref 0 in
    let delayed = ref None in
    let add = Buffer.add_string buf in
    List.iter
      (fun r ->
        if Fault.drops_message f then incr dropped
        else begin
          let line = encode r in
          let line =
            if Fault.corrupts_message f then begin
              incr corrupted;
              flip_bit f line
            end
            else line
          in
          let dup = Fault.lies f in
          if dup then incr duplicated;
          let delay = Fault.times_out f in
          match !delayed with
          | Some held ->
              (* Flush the held line after this one: the adjacent reorder. *)
              add line;
              if dup then add line;
              add held;
              delayed := None
          | None ->
              if delay && not dup then begin
                incr reordered;
                delayed := Some line
              end
              else begin
                add line;
                if dup then add line
              end
        end)
      records;
    (match !delayed with Some held -> add held | None -> ());
    ( Buffer.contents buf,
      {
        dropped = !dropped;
        corrupted = !corrupted;
        duplicated = !duplicated;
        reordered = !reordered;
      } )

  let tear s ~at =
    if at < 0 then invalid_arg "Wal.Adversary.tear: negative offset";
    String.sub s 0 (min at (String.length s))
end
