type row = Cells of string list | Rule

(* Display width = number of UTF-8 code points (close enough for the Greek
   letters and math symbols the benches use; no combining marks here). *)
let display_width s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

type t = { title : string; columns : string list; mutable rows : row list }

let create ~title ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: cell count mismatch";
  t.rows <- Cells cells :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

let render t =
  let rows = List.rev t.rows in
  let ncols = List.length t.columns in
  let widths = Array.of_list (List.map display_width t.columns) in
  List.iter
    (function
      | Rule -> ()
      | Cells cs ->
          List.iteri (fun i c -> widths.(i) <- max widths.(i) (display_width c)) cs)
    rows;
  let buf = Buffer.create 1024 in
  let pad i s =
    let w = widths.(i) in
    let missing = w - display_width s in
    (* Right-align numeric-looking cells, left-align text. *)
    let numeric =
      String.length s > 0
      && (match s.[0] with '0' .. '9' | '-' | '+' | '.' -> true | _ -> false)
    in
    if missing <= 0 then s
    else if numeric then String.make missing ' ' ^ s
    else s ^ String.make missing ' '
  in
  let total_width =
    Array.fold_left ( + ) 0 widths + (3 * (ncols - 1))
  in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make total_width '=');
  Buffer.add_char buf '\n';
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string buf " | ";
      Buffer.add_string buf (pad i c))
    t.columns;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make total_width '-');
  Buffer.add_char buf '\n';
  List.iter
    (function
      | Rule ->
          Buffer.add_string buf (String.make total_width '-');
          Buffer.add_char buf '\n'
      | Cells cs ->
          List.iteri
            (fun i c ->
              if i > 0 then Buffer.add_string buf " | ";
              Buffer.add_string buf (pad i c))
            cs;
          Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

(* --- capture (for machine-readable dumps of a bench run) --- *)

let capturing = ref false
let captured_rev : t list ref = ref []

let set_capture b =
  capturing := b;
  if not b then captured_rev := []

let captured () = List.rev !captured_rev
let captured_count () = List.length !captured_rev

let print t =
  if !capturing then captured_rev := t :: !captured_rev;
  print_string (render t);
  print_newline ()

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let str s = "\"" ^ json_escape s ^ "\"" in
  let cells cs = "[" ^ String.concat "," (List.map str cs) ^ "]" in
  let rows =
    List.filter_map (function Rule -> None | Cells cs -> Some (cells cs))
      (List.rev t.rows)
  in
  Printf.sprintf "{\"title\":%s,\"columns\":%s,\"rows\":[%s]}" (str t.title)
    (cells t.columns)
    (String.concat "," rows)

let fint = string_of_int

let ffloat ?(digits = 3) x = Printf.sprintf "%.*f" digits x

let fpct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let fbool b = if b then "yes" else "no"
