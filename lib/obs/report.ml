(* Rendering for the global metrics registry: text tables via Dcs.Table,
   machine-readable JSON snapshots, and the span hot-path table. *)

module Metrics = Dcs_obs_core.Metrics
module Trace = Dcs_obs_core.Trace
module Table = Dcs_util.Table
module Stats = Dcs_util.Stats

let env_var = "DCS_METRICS"

(* --- text rendering --- *)

let scalar_rows snap =
  List.filter_map
    (function
      | name, Metrics.Counter_v v -> Some [ name; "counter"; Table.fint v ]
      | _, Metrics.Histogram_v _ -> None)
    snap

let histogram_rows snap =
  (* One row per nonzero bucket, bars scaled per histogram with the shared
     Stats bucket renderer. *)
  List.concat_map
    (function
      | name, Metrics.Histogram_v h when h.Metrics.count > 0 ->
          let nonzero =
            List.filter
              (fun (_, c) -> c > 0)
              (Array.to_list (Array.mapi (fun b c -> (b, c)) h.Metrics.bucket_counts))
          in
          let bars =
            Stats.bucket_bars (Array.of_list (List.map snd nonzero))
          in
          let buckets = Array.length h.Metrics.bucket_counts in
          let mean = float_of_int h.Metrics.sum /. float_of_int h.Metrics.count in
          List.mapi
            (fun i (b, c) ->
              [
                (if i = 0 then
                   Printf.sprintf "%s (n=%d, sum=%d, mean=%.1f)" name
                     h.Metrics.count h.Metrics.sum mean
                 else "");
                Metrics.bucket_label ~buckets b;
                Table.fint c;
                bars.(i);
              ])
            nonzero
      | _ -> [])
    snap

let render () =
  let snap = Metrics.snapshot () in
  let buf = Buffer.create 1024 in
  let scalars = scalar_rows snap in
  let t = Table.create ~title:"metrics registry" ~columns:[ "metric"; "kind"; "value" ] in
  if scalars = [] then Table.add_row t [ "(none)"; ""; "" ]
  else List.iter (Table.add_row t) scalars;
  Buffer.add_string buf (Table.render t);
  let hrows = histogram_rows snap in
  if hrows <> [] then begin
    Buffer.add_char buf '\n';
    let h =
      Table.create ~title:"histograms (exponential buckets)"
        ~columns:[ "histogram"; "bucket"; "count"; "" ]
    in
    List.iter (Table.add_row h) hrows;
    Buffer.add_string buf (Table.render h)
  end;
  Buffer.contents buf

let print () = print_string (render ())

let span_table () =
  let t =
    Table.create ~title:"hot paths: top spans by self time (wall clock)"
      ~columns:[ "span"; "count"; "total ms"; "self ms"; "self %" ]
  in
  let stats = Trace.stats () in
  let total_self = List.fold_left (fun a s -> a +. s.Trace.self_s) 0.0 stats in
  let rec take n = function
    | s :: tl when n > 0 ->
        Table.add_row t
          [
            s.Trace.name;
            Table.fint s.Trace.count;
            Table.ffloat ~digits:2 (1e3 *. s.Trace.total_s);
            Table.ffloat ~digits:2 (1e3 *. s.Trace.self_s);
            Table.fpct
              (if total_self > 0.0 then s.Trace.self_s /. total_self else 0.0);
          ];
        take (n - 1) tl
    | _ -> ()
  in
  take 12 stats;
  t

(* --- JSON snapshot (metrics only: no wall clock, deterministic) --- *)

let snapshot_json () =
  let esc = Trace.json_escape in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf (Printf.sprintf "\n\"%s\":" (esc name));
      match v with
      | Metrics.Counter_v c ->
          Buffer.add_string buf (Printf.sprintf "{\"type\":\"counter\",\"value\":%d}" c)
      | Metrics.Histogram_v h ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"type\":\"histogram\",\"count\":%d,\"sum\":%d,\"buckets\":[%s]}"
               h.Metrics.count h.Metrics.sum
               (String.concat ","
                  (Array.to_list (Array.map string_of_int h.Metrics.bucket_counts)))))
    (Metrics.snapshot ());
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* DCS_METRICS=1 prints the text report to stderr at the end of a run;
   DCS_METRICS=<path> writes the deterministic JSON snapshot there (what
   bin/check_determinism.sh diffs across DCS_DOMAINS). *)
let dump_env () =
  match Sys.getenv_opt env_var with
  | None -> ()
  | Some raw -> (
      match String.trim raw with
      | "" | "0" -> ()
      | "1" | "stderr" -> prerr_string (render ())
      | path ->
          let oc = open_out path in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
              output_string oc (snapshot_json ())))
