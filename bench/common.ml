(* Shared helpers for the experiment harness. *)

open Dcs

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '#')

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  note: %s\n" s) fmt

(* Success-rate cell with a trials annotation. *)
let rate_cell ~ok ~total =
  Printf.sprintf "%.2f (%d/%d)" (float_of_int ok /. float_of_int total) ok total

let kbits bits = Printf.sprintf "%.1f" (float_of_int bits /. 1000.0)

(* Registry probe-delta: snapshot a counter, read its increment later.
   Deltas (not resets) keep experiments composable in one process. *)
type probe = { counter : Obs.Metrics.counter; before : int }

let probe name =
  let c = Obs.Metrics.counter name in
  { counter = c; before = Obs.Metrics.counter_value c }

let delta p = Obs.Metrics.counter_value p.counter - p.before

(* Registry cross-check table: each row sets a count the experiment
   derives itself (a bespoke meter or a closed form) against the
   Obs.Metrics registry's. The label columns (usually just "invariant")
   lead the table, and each row fills them with its [labels].
   [print_checks] prints the table, then fails the experiment if any row
   disagreed. *)
type checks = { table : Table.t; mutable agree : bool }

let checks columns title =
  {
    table =
      Table.create ~title
        ~columns:(columns @ [ "expected"; "registry"; "agree" ]);
    agree = true;
  }

let check c labels ~expected ~registry =
  let ok = expected = registry in
  if not ok then c.agree <- false;
  Table.add_row c.table
    (labels @ [ Table.fint expected; Table.fint registry; Table.fbool ok ])

let print_checks c ~failure =
  Table.print c.table;
  if not c.agree then failwith failure

let fail fmt = Printf.ksprintf failwith fmt

(* An enforced contract: a violation aborts the experiment, and the run. *)
let enforce id what cond = if not cond then fail "%s: %s violated" id what

(* Wall-clock seconds of [f ()], with its result. Wall clock, not process
   CPU time, which sums every domain. Timings go to stderr or footers
   only, never into tables or stage artifacts. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The explicit domain counts the multicore experiments compare, and the
   host's core count their wall-clock floors are sized by. *)
let domain_grid = [ 1; 2; 4 ]
let cores = Domain.recommended_domain_count ()

let seed_of_experiment id =
  (* Stable per-experiment seeds so every table is reproducible in
     isolation. *)
  1000 + id

let rng_for id = Prng.create (seed_of_experiment id)

(* --- scratch files (their paths never reach stdout) --- *)

(* Scratch directories hold plain files only. *)
let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let scratch_counter = ref 0

(* An empty directory under the temp dir, distinct per process and call. *)
let fresh_dir () =
  incr scratch_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dcs_bench_%d_%d" (Unix.getpid ()) !scratch_counter)
  in
  rm_rf d;
  Sys.mkdir d 0o755;
  d

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc
