open Dcs

(* Fuzz properties for the parsers at the system's byte boundaries: WAL
   records and logs, checksummed frames, and the edge-list parsers behind
   a frame. Inputs lean toward what the parsers branch on — digits,
   spaces, newlines, the DCSW1/DCS1 magic, float spellings — and part of
   them carry a correct CRC over a fuzzed body, so the checks after the
   checksum run too. *)

let token =
  QCheck.Gen.(
    frequency
      [
        (5, map (String.make 1) (char_range '0' '9'));
        (3, return " ");
        (2, return "\n");
        (2, map (String.make 1) char);
        ( 2,
          oneofl
            [ "DCSW1"; "DCS1"; "I"; "D"; "-"; "."; "e"; "x"; "0x1p-3"; "\t";
              "\r"; "nan"; "inf"; "ff"; "1e308" ] );
      ])

let soup = QCheck.Gen.(list_size (0 -- 40) token >|= String.concat "")

let one_line s = String.map (fun c -> if c = '\n' then ' ' else c) s

let record =
  QCheck.Gen.(
    map
      (fun (seq, del, u, v, w) ->
        { Wal.seq; op = (if del then Wal.Delete else Wal.Insert); u; v; w })
      (tup5 (1 -- 1_000_000) bool (0 -- 5000) (0 -- 5000)
         (float_range 1e-9 1e9)))

let flip_byte s i c =
  if s = "" then s
  else String.mapi (fun j x -> if j = i mod String.length s then c else x) s

(* One WAL line, without its newline. *)
let wal_line =
  QCheck.Gen.(
    frequency
      [
        (2, map one_line soup);
        ( 2,
          map
            (fun b ->
              let b = one_line b in
              Printf.sprintf "DCSW1 %08x %s" (Checksum.crc32 b) b)
            soup );
        (1, map (fun r -> String.trim (Wal.encode r)) record);
        ( 2,
          map
            (fun (r, i, c) ->
              one_line (flip_byte (String.trim (Wal.encode r)) i c))
            (triple record nat char) );
      ])

(* A log: lines joined by newlines, possibly torn anywhere. *)
let wal_log =
  QCheck.Gen.(
    map
      (fun (lines, cut) ->
        let s = String.concat "\n" lines in
        match cut with
        | Some k when s <> "" -> String.sub s 0 (k mod (String.length s + 1))
        | _ -> s ^ if lines = [] then "" else "\n")
      (pair (list_size (0 -- 8) wal_line) (opt nat)))

(* Edge-list text: a small header and lines of three fields, or soup. *)
let graph_text =
  let field =
    QCheck.Gen.(
      frequency
        [
          (4, map string_of_int (-2 -- 40));
          ( 2,
            oneofl
              [ "1"; "0"; "-1"; "2.5"; "1e308"; "nan"; "inf"; "0x1p+0";
                "1e-320" ] );
          (1, soup);
        ])
  in
  QCheck.Gen.(
    frequency
      [
        (1, soup);
        ( 3,
          map
            (fun (n, lines) ->
              String.concat "\n"
                (string_of_int n
                :: List.map (fun (u, v, w) -> String.concat " " [ u; v; w ])
                     lines))
            (pair (0 -- 40) (list_size (0 -- 12) (triple field field field))) );
      ])

let arb gen = QCheck.make ~print:(Printf.sprintf "%S") gen

let total f x = match f x with _ -> true | exception _ -> false

let prop_wal_decode_total =
  QCheck.Test.make ~name:"wal: decode never raises, accepts only encode's image"
    ~count:5000 (arb wal_line) (fun line ->
      match Wal.decode line with
      | Ok r -> Wal.encode r = line ^ "\n"
      | Error _ -> true
      | exception _ -> false)

let prop_wal_roundtrip =
  QCheck.Test.make ~name:"wal: decode inverts encode" ~count:500
    (QCheck.make record) (fun r ->
      Wal.decode (String.trim (Wal.encode r)) = Ok r)

let prop_wal_scan_accounting =
  QCheck.Test.make ~name:"wal: scan never raises, every unit is accounted"
    ~count:2000 (arb wal_log) (fun s ->
      match Wal.scan_string s with
      | exception _ -> false
      | scan ->
          let newlines = List.length (String.split_on_char '\n' s) - 1 in
          let torn =
            if s = "" || s.[String.length s - 1] = '\n' then 0 else 1
          in
          scan.Wal.units = newlines + torn
          && scan.Wal.units
             = List.length scan.Wal.records + List.length scan.Wal.damaged)

let prop_unframe =
  QCheck.Test.make ~name:"checksum: unframe never raises and inverts frame"
    ~count:2000
    (QCheck.make
       ~print:(fun (p, _) -> Printf.sprintf "%S" p)
       QCheck.Gen.(pair soup (opt (pair nat char))))
    (fun (p, flip) ->
      Checksum.unframe (Checksum.frame p) = Ok p
      && total Checksum.unframe p
      && match flip with
         | Some (i, c) ->
             total Checksum.unframe (flip_byte (Checksum.frame p) i c)
         | None -> true)

let prop_graph_frames =
  QCheck.Test.make ~name:"serialize: *_of_frame never raises on framed bytes"
    ~count:3000 (arb graph_text) (fun s ->
      let f = Checksum.frame s in
      total Serialize.ugraph_of_frame f
      && total (fun f -> Result.bind (Checksum.unframe f) Serialize.digraph_of_string) f)

(* The header is bounded before any graph is allocated. *)
let test_vertex_bound () =
  List.iter
    (fun k ->
      match Serialize.digraph_of_string (string_of_int k ^ "\n") with
      | Ok _ -> Alcotest.failf "accepted n = %d" k
      | Error e ->
          Alcotest.(check string) "error names line 1"
            (Printf.sprintf "line 1: vertex count %d exceeds the bound of %d" k
               Serialize.max_vertices)
            e)
    [ Serialize.max_vertices + 1; 100_000_000; max_int ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_wal_decode_total;
    QCheck_alcotest.to_alcotest prop_wal_roundtrip;
    QCheck_alcotest.to_alcotest prop_wal_scan_accounting;
    QCheck_alcotest.to_alcotest prop_unframe;
    QCheck_alcotest.to_alcotest prop_graph_frames;
    Alcotest.test_case "serialize: vertex count bound" `Quick test_vertex_bound;
  ]
