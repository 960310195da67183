(* Table-driven reflected CRC-32: [table.(n)] is the CRC register after
   eight bitwise steps from [n], so one lookup and one shift replace the
   eight-step inner loop of the bitwise form, with the same values. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
      done;
      !c)

let crc32 s =
  let crc = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    let k = (!crc lxor Char.code (String.unsafe_get s i)) land 0xFF in
    crc := Array.unsafe_get table k lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let bits = 32

(* --- checksummed frames --- *)

let frame payload =
  Printf.sprintf "DCS1 %d %08x\n%s" (String.length payload) (crc32 payload)
    payload

let unframe s =
  match String.index_opt s '\n' with
  | None -> Error "frame: missing header terminator"
  | Some nl -> (
      let header = String.sub s 0 nl in
      let body = String.sub s (nl + 1) (String.length s - nl - 1) in
      match String.split_on_char ' ' header with
      | [ "DCS1"; len; crc ] -> (
          match int_of_string_opt len with
          | Some len ->
              if String.length body <> len then
                Error
                  (Printf.sprintf
                     "frame: length mismatch (body at byte offset %d: header \
                      promises %d bytes, found %d)"
                     (nl + 1) len (String.length body))
                (* Compare against the canonical rendering, not the parsed
                   value: hex parsing is case-insensitive, so a bit flip
                   turning 'a' into 'A' would otherwise slip through. *)
              else if Printf.sprintf "%08x" (crc32 body) <> crc then
                Error
                  (Printf.sprintf
                     "frame: checksum mismatch (body at byte offset %d, %d \
                      bytes: expected crc %s, actual %08x)"
                     (nl + 1) len crc (crc32 body))
              else Ok body
          | None -> Error "frame: unparsable header fields")
      | _ -> Error "frame: bad magic")
