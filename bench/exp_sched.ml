(* E23 — the scheduler's own contract: a warm rerun of the scheduled
   experiment DAG must be indistinguishable from a cold one except for the
   work it skipped.

   Part A replays the full E3/E4/E19/E20 merged DAG twice against one
   in-memory artifact store and enforces:

   - stdout of the report closures byte-identical, cold vs warm (the
     artifacts carry every number the tables print, so a cache hit and a
     recomputation must render the same bytes);
   - a cache-hit floor on the warm run: >= 50% of offered stages served
     from the store (it measures 100% here — the floor leaves room for
     future DAGs with deliberately uncacheable stages);
   - the structural identity offered = hits + runs on both reports, and
     the same identity on the global sched.* registry deltas, E18-style.

   Part B drops to the disk tier with the E3 pipeline alone: cold run
   spills every artifact through Dcs.Checkpoint, a fresh store rehydrates
   them all (zero stage runs), a bit-flipped artifact is rejected by the
   CRC frame and forces exactly that stage to recompute — never a wrong
   cache hit — and the recomputation's write-through repairs the file, so
   a fourth run is all-hits again. Stdout is byte-identical in all four.

   The floors-free plans are used (plan ~floors:false): cache behavior
   must not depend on wall-clock luck. All stdout here is counts and
   flags, byte-identical across DCS_DOMAINS for the determinism gate. *)

open Dcs
module P = Pipelines

(* Redirect fd 1 into a temp file around [f] and return its bytes: the
   cached-vs-cold contract is over the exact bytes a user would see, so it
   is checked at the file-descriptor level, not via formatter plumbing. *)
let with_stdout_capture f =
  let tmp = Filename.temp_file "dcs_e23_out" ".txt" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  let r =
    try f ()
    with e ->
      restore ();
      Sys.remove tmp;
      raise e
  in
  restore ();
  let out = Common.read_file tmp in
  Sys.remove tmp;
  (r, out)

(* Plan the given experiments on a fresh DAG over [store], run it, render
   the reports; returns the scheduler report and the captured stdout. *)
let run_plans store plan_fns =
  let pl = P.create store in
  let reports = List.map (fun plan -> plan pl) plan_fns in
  let rep = ref None in
  let (), out =
    with_stdout_capture (fun () ->
        rep := Some (Sched.run (P.dag pl));
        List.iter (fun render -> render ()) reports)
  in
  (Option.get !rep, out)

let full_plans =
  [
    Exp_foreach_lb.plan;
    Exp_forall_lb.plan;
    Exp_repr.plan ~floors:false;
    Exp_batched.plan ~floors:false;
  ]

let structural (rep : Sched.report) tag =
  if rep.Sched.offered <> rep.Sched.hits + rep.Sched.ran then
    failwith
      (Printf.sprintf "E23: %s run breaks offered = hits + runs (%d <> %d + %d)"
         tag rep.Sched.offered rep.Sched.hits rep.Sched.ran)

let memory_tier () =
  let store = Sched.Store.create () in
  let po = Common.probe "sched.stages_offered" in
  let pr = Common.probe "sched.stage_runs" in
  let ph = Common.probe "sched.cache_hits" in
  let cold, out_cold = run_plans store full_plans in
  let warm, out_warm = run_plans store full_plans in
  structural cold "cold";
  structural warm "warm";
  if not (String.equal out_cold out_warm) then
    failwith "E23: warm stdout differs from cold stdout";
  let hit_rate =
    float_of_int warm.Sched.hits /. float_of_int (max 1 warm.Sched.offered)
  in
  if hit_rate < 0.5 then
    failwith
      (Printf.sprintf "E23: warm cache-hit rate %.2f below the 0.5 floor"
         hit_rate);
  let t =
    Table.create
      ~title:"cold vs warm: full E3/E4/E19/E20 DAG on one in-memory store"
      ~columns:[ "metric"; "cold"; "warm" ]
  in
  let row name f = Table.add_row t [ name; Table.fint (f cold); Table.fint (f warm) ] in
  row "stages" (fun r -> r.Sched.stages);
  row "levels" (fun r -> r.Sched.levels);
  row "offered" (fun r -> r.Sched.offered);
  row "ran" (fun r -> r.Sched.ran);
  row "ran (pooled)" (fun r -> r.Sched.pooled_ran);
  row "ran (serial)" (fun r -> r.Sched.serial_ran);
  row "cache hits" (fun r -> r.Sched.hits);
  Table.add_row t
    [ "stdout bytes"; Table.fint (String.length out_cold); "identical" ];
  Table.print t;
  Common.note "warm hit rate %.2f (floor 0.50); report tables render from"
    hit_rate;
  Common.note "artifacts, so a hit and a recomputation print the same bytes.";
  let ct =
    Common.checks [ "invariant" ]
      "sched.* registry vs scheduler reports (both runs)"
  in
  Common.check ct [ "sched.stages_offered = offered" ]
    ~expected:(cold.Sched.offered + warm.Sched.offered)
    ~registry:(Common.delta po);
  Common.check ct [ "sched.stage_runs + sched.cache_hits = offered" ]
    ~expected:(cold.Sched.offered + warm.Sched.offered)
    ~registry:(Common.delta pr + Common.delta ph);
  Common.check ct [ "sched.stage_runs = ran" ]
    ~expected:(cold.Sched.ran + warm.Sched.ran)
    ~registry:(Common.delta pr);
  Common.print_checks ct
    ~failure:"E23: sched registry disagrees with the scheduler reports"

let flip_middle_byte path =
  let b = Bytes.of_string (Common.read_file path) in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Common.write_file path (Bytes.to_string b)

type tier_row = {
  phase : string;
  rep : Sched.report;
  spills : int;
  disk_hits : int;
  corrupt : int;
}

let disk_tier () =
  let dir = Common.fresh_dir () in
  let phase name =
    let ps = Common.probe "sched.store_spills" in
    let pd = Common.probe "sched.store_disk_hits" in
    let pc = Common.probe "sched.store_corrupt_rejected" in
    (* A fresh store each phase: the memory tier must not mask the disk. *)
    let rep, out = run_plans (Sched.Store.create ~dir ()) [ Exp_foreach_lb.plan ] in
    structural rep name;
    ( { phase = name; rep; spills = Common.delta ps;
        disk_hits = Common.delta pd; corrupt = Common.delta pc },
      out )
  in
  let cold, out_cold = phase "cold" in
  let warm, out_warm = phase "rehydrate" in
  let victim =
    let arts =
      Array.to_list (Sys.readdir dir)
      |> List.filter (fun f -> Filename.check_suffix f ".art")
      |> List.sort compare
    in
    match arts with
    | [] -> failwith "E23: cold run spilled no artifacts"
    | a :: _ -> Filename.concat dir a
  in
  flip_middle_byte victim;
  let damaged, out_damaged = phase "bit-flipped" in
  let repaired, out_repaired = phase "repaired" in
  Common.rm_rf dir;
  List.iter
    (fun (tag, out) ->
      if not (String.equal out_cold out) then
        failwith (Printf.sprintf "E23: %s stdout differs from cold" tag))
    [ ("rehydrate", out_warm); ("bit-flipped", out_damaged);
      ("repaired", out_repaired) ];
  if cold.spills = 0 then failwith "E23: cold run spilled nothing to disk";
  if warm.rep.Sched.ran <> 0 then
    failwith "E23: rehydrating run recomputed despite intact artifacts";
  if damaged.corrupt < 1 then
    failwith "E23: bit-flipped artifact was not rejected";
  if damaged.rep.Sched.ran < 1 then
    failwith "E23: bit-flipped artifact did not force a recompute";
  if repaired.rep.Sched.ran <> 0 then
    failwith "E23: write-through did not repair the damaged artifact";
  let t =
    Table.create
      ~title:"disk tier (E3 pipeline, fresh store per phase): damage forces \
              recompute, never a wrong hit"
      ~columns:[ "phase"; "offered"; "ran"; "hits"; "spills"; "disk hits";
                 "corrupt"; "stdout" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.phase;
          Table.fint r.rep.Sched.offered;
          Table.fint r.rep.Sched.ran;
          Table.fint r.rep.Sched.hits;
          Table.fint r.spills;
          Table.fint r.disk_hits;
          Table.fint r.corrupt;
          (if r.phase = "cold" then "baseline" else "identical");
        ])
    [ cold; warm; damaged; repaired ];
  Table.print t;
  Common.note "artifacts ride Dcs.Checkpoint's CRC frames: the flipped byte is";
  Common.note "rejected at load, only that stage reruns (dependents still hit —";
  Common.note "the recomputed bytes hash to the same key), and the write-through";
  Common.note "put repairs the file for the final all-hits run."

let run () =
  Common.section "E23 Scheduler: cached-vs-cold identity + cache-hit floor";
  memory_tier ();
  print_newline ();
  disk_tier ()
