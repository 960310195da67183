let output_generic out n iter =
  Buffer.add_string out (string_of_int n);
  Buffer.add_char out '\n';
  iter (fun u v w -> Buffer.add_string out (Printf.sprintf "%d %d %.17g\n" u v w))

let max_vertices = 1 lsl 20

(* Line by line: the first non-blank line is the vertex count, every later
   non-blank line one edge. The first violation is an [Error] naming its
   1-based line number and the reason. The count is bounded before any
   graph is allocated: building one costs a hashtable per vertex. *)
let parse_string s =
  let fail lno fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lno m)) fmt in
  let rec go n lno acc = function
    | [] -> Option.fold n ~none:(Error "empty input: expected a vertex count") ~some:(fun n -> Ok (n, List.rev acc))
    | line :: rest -> (
        let next n acc = go n (lno + 1) acc rest in
        let fields =
          String.map (function '\t' | '\r' -> ' ' | c -> c) line
          |> String.split_on_char ' ' |> List.filter (( <> ) "")
        in
        match (n, fields) with
        | _, [] -> next n acc
        | None, _ -> (
            match List.map int_of_string_opt fields with
            | [ Some k ] when k > max_vertices ->
                fail lno "vertex count %d exceeds the bound of %d" k max_vertices
            | [ Some k ] when k >= 0 -> next (Some k) acc
            | _ -> fail lno "expected a non-negative vertex count, got %S" line)
        | Some k, [ u; v; w ] -> (
            match (int_of_string_opt u, int_of_string_opt v, float_of_string_opt w) with
            | Some u, Some v, Some w ->
                if u < 0 || u >= k || v < 0 || v >= k then
                  fail lno "edge (%d, %d) out of range for n=%d" u v k
                else if u = v then fail lno "self-loop on vertex %d" u
                else if not (Float.is_finite w && w >= 0.0) then
                  fail lno "weight %g is not finite and >= 0" w
                else next n ((u, v, w) :: acc)
            | _ -> fail lno "expected integer endpoints and a float weight, got %S" line)
        | Some _, _ -> fail lno "expected \"<u> <v> <w>\", got %S" line)
  in
  go None 1 [] (String.split_on_char '\n' s)

(* Validated edges can still merge past the largest float. *)
let build of_edges s =
  Result.bind (parse_string s) (fun (n, edges) ->
      match of_edges n edges with
      | g -> Ok g
      | exception Invalid_argument e -> Error e)

let ugraph_to_string g =
  let out = Buffer.create 256 in
  output_generic out (Ugraph.n g) (fun f -> Ugraph.iter_edges g f);
  Buffer.contents out

let ugraph_of_string = build Ugraph.of_edges

let digraph_to_string g =
  let out = Buffer.create 256 in
  output_generic out (Digraph.n g) (fun f -> Digraph.iter_edges g f);
  Buffer.contents out

let digraph_of_string = build Digraph.of_edges

let output_ugraph oc g = output_string oc (ugraph_to_string g)
let output_digraph oc g = output_string oc (digraph_to_string g)

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 4096
     done
   with End_of_file -> ());
  Buffer.contents buf

let input_ugraph ic = ugraph_of_string (read_all ic)
let input_digraph ic = digraph_of_string (read_all ic)

(* --- checksummed frames: Dcs_util.Checksum's, shared with Checkpoint
   snapshots --- *)

let ugraph_to_frame g = Dcs_util.Checksum.frame (ugraph_to_string g)
let ugraph_of_frame s = Result.bind (Dcs_util.Checksum.unframe s) ugraph_of_string
