(* perfbench: times one workload and prints the result as one JSON line.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the result holds the end-to-end metrics; with --trace 1
   the per-layer ones (span self times and registry counts per operation).
   Exit 2 on a bad command line, 1 if the run itself fails. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload (decode|sparsolve|serve|ingest) --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let int_arg r s = match int_of_string_opt s with Some v -> r := Some v | None -> usage () in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: s :: rest ->
        int_arg seed s;
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some v when v > 0.0 -> seconds := Some v
        | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := Some (t = "1");
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace -> (
      match List.find_opt (fun w -> w.Harness.name = name) Workloads.all with
      | None ->
          Printf.eprintf "perfbench: unknown workload %S\n" name;
          exit 2
      | Some w ->
          let r = Harness.run_workload w ~seed ~seconds ~trace in
          print_endline (Harness.to_json r))
  | _ -> usage ()
