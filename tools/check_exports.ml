(* Export guard: every value a lib/*/*.mli declares must be read by some
   other compilation unit of the workspace.

   Usage: check_exports [BUILD_DIR]   (default _build/default, after
   `dune build @check`, so every .cmt and .cmti exists)

   A value's declaration is the location of its `val` (or `external`) in
   the .cmti. A reader is a `Texp_ident` in some .cmt whose value
   description carries that location: an identifier that resolves through
   the interface. A module's own .ml reads its values at their `let`, not
   at the `val`, so it never counts as a reader. Prints each declared value
   that nothing reads this way and exits 1 if there is one; prints how
   many values are read only from test/. *)

open Typedtree

let key (loc : Location.t) = (loc.loc_start.pos_fname, loc.loc_start.pos_cnum)

let rec walk dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then walk path acc else path :: acc)
    acc (Sys.readdir dir)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let () =
  let build = if Array.length Sys.argv > 1 then Sys.argv.(1) else "_build/default" in
  let files = List.sort compare (walk build []) in
  (* key -> (qualified name, declaring .mli) *)
  let declared = Hashtbl.create 1024 in
  (* key -> list of reading source files *)
  let readers = Hashtbl.create 1024 in
  let declare src modname =
    let rec items prefix sg =
      List.iter
        (fun item ->
          match item.sig_desc with
          | Tsig_value vd ->
              Hashtbl.replace declared (key vd.val_val.val_loc)
                (prefix ^ vd.val_name.txt, src)
          | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
              match md_type.mty_desc with
              | Tmty_signature sg -> items (prefix ^ m ^ ".") sg
              | _ -> ())
          | _ -> ())
        sg.sig_items
    in
    items (modname ^ ".")
  in
  let read src str =
    let expr sub e =
      (match e.exp_desc with
      | Texp_ident (_, _, vd) ->
          let k = key vd.val_loc in
          let prev = Option.value ~default:[] (Hashtbl.find_opt readers k) in
          Hashtbl.replace readers k (src :: prev)
      | _ -> ());
      Tast_iterator.default_iterator.expr sub e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.structure it str
  in
  List.iter
    (fun file ->
      if Filename.check_suffix file ".cmti" || Filename.check_suffix file ".cmt"
      then
        let cmt = Cmt_format.read_cmt file in
        match (cmt.cmt_sourcefile, cmt.cmt_annots) with
        | Some src, Cmt_format.Interface sg when starts_with ~prefix:"lib/" src ->
            let m = String.capitalize_ascii (Filename.remove_extension (Filename.basename src)) in
            declare src m sg
        | Some src, Cmt_format.Implementation str -> read src str
        | _ -> ())
    files;
  let unread = ref [] and test_only = ref 0 in
  Hashtbl.iter
    (fun k (name, src) ->
      match Hashtbl.find_opt readers k with
      | None -> unread := (src, name) :: !unread
      | Some srcs ->
          if List.for_all (starts_with ~prefix:"test/") srcs then incr test_only)
    declared;
  let unread = List.sort compare !unread in
  List.iter (fun (src, name) -> Printf.printf "%s: %s is read by no other unit\n" src name) unread;
  Printf.printf "%d values declared in lib/*/*.mli: %d read by no other unit, %d read only from test/\n"
    (Hashtbl.length declared) (List.length unread) !test_only;
  if unread <> [] then exit 1
