(* Export guard: every value a lib/*/*.mli declares must be read by some
   other compilation unit of the workspace, and every optional parameter
   of such a value must be set by some program that calls it.

   Usage: check_exports [BUILD_DIR]   (default _build/default, after
   `dune build @check`, so every .cmt and .cmti exists)

   A value's declaration is the location of its `val` (or `external`) in
   the .cmti. A reader is a `Texp_ident` in some .cmt whose value
   description carries that location: an identifier that resolves through
   the interface. A module's own .ml reads its values at their `let`, not
   at the `val`, so it never counts as a reader. Prints each declared value
   that nothing reads this way and exits 1 if there is one; prints how
   many values are read only from test/.

   Option slots. A program is a unit in lib/, bench/, bin/ or perfbench/.
   A call is a `Texp_apply` whose function is an identifier of a declared
   value; a module's own calls count too, matched to the `val` through the
   interface check's value dependencies (the `let` a call inside the .ml
   resolves to). A call passes `?x` when its argument for that label is
   written in the source: an omitted optional argument is a `None` the
   type checker inserted, with no source location (`_none_`). An optional
   parameter of a value some program calls fails when no program call
   passes it: a default no program changes is a constant. Values only
   tests call are not checked (they are counted as read only from
   test/). Exits 1 on such a slot too; prints how many slots lib/*/*.mli
   declares. *)

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

let is_program src =
  List.exists (fun prefix -> starts_with ~prefix src)
    [ "lib/"; "bench/"; "bin/"; "perfbench/" ]

(* The optional labels of a value's type, in order. *)
let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, ret, _) -> l :: optional_labels ret
  | Types.Tarrow (_, _, ret, _) -> optional_labels ret
  | _ -> []

let () =
  let build = if Array.length Sys.argv > 1 then Sys.argv.(1) else "_build/default" in
  let files = List.sort compare (walk build []) in
  (* key -> (qualified name, declaring .mli, optional labels) *)
  let declared = Hashtbl.create 1024 in
  (* key -> list of reading source files *)
  let readers = Hashtbl.create 1024 in
  (* (declaration key, declaration key) pairs an interface check matched:
     a `val` and the `let` implementing it, in either order *)
  let implements = ref [] in
  (* (key, optional labels passed), for every call in a program *)
  let calls = ref [] in
  let declare src modname =
    let rec items prefix sg =
      List.iter
        (fun item ->
          match item.sig_desc with
          | Tsig_value vd ->
              Hashtbl.replace declared (key vd.val_val.val_loc)
                (prefix ^ vd.val_name.txt, src, optional_labels vd.val_val.val_type)
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
      | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) when is_program src ->
          let passed =
            List.filter_map
              (function
                | Asttypes.Optional l, Some (a : expression)
                  when a.exp_loc.loc_start.pos_fname <> "_none_" -> Some l
                | _ -> None)
              args
          in
          calls := (key vd.val_loc, passed) :: !calls
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
        List.iter
          (fun ((a : Types.value_description), (b : Types.value_description)) ->
            implements := (key a.val_loc, key b.val_loc) :: !implements)
          cmt.cmt_value_dependencies;
        match (cmt.cmt_sourcefile, cmt.cmt_annots) with
        | Some src, Cmt_format.Interface sg when starts_with ~prefix:"lib/" src ->
            let m = String.capitalize_ascii (Filename.remove_extension (Filename.basename src)) in
            declare src m sg
        | Some src, Cmt_format.Implementation str -> read src str
        | _ -> ())
    files;
  (* key of a `let` -> key of the declared `val` it implements *)
  let declared_as = Hashtbl.create 1024 in
  List.iter
    (fun (a, b) ->
      if Hashtbl.mem declared a then Hashtbl.replace declared_as b a
      else if Hashtbl.mem declared b then Hashtbl.replace declared_as a b)
    !implements;
  (* key of a declared value -> labels passed, one list per program call *)
  let passed_at = Hashtbl.create 1024 in
  List.iter
    (fun (k, passed) ->
      let k = Option.value ~default:k (Hashtbl.find_opt declared_as k) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt passed_at k) in
      Hashtbl.replace passed_at k (passed :: prev))
    !calls;
  let unread = ref [] and test_only = ref 0 and slots = ref 0 and unset = ref [] in
  Hashtbl.iter
    (fun k (name, src, opts) ->
      (match Hashtbl.find_opt readers k with
      | None -> unread := (src, name) :: !unread
      | Some srcs ->
          if List.for_all (starts_with ~prefix:"test/") srcs then incr test_only);
      slots := !slots + List.length opts;
      match Hashtbl.find_opt passed_at k with
      | None -> ()
      | Some calls ->
          List.iter
            (fun l ->
              if not (List.exists (List.mem l) calls) then
                unset := (src, name, l) :: !unset)
            opts)
    declared;
  let unread = List.sort compare !unread and unset = List.sort compare !unset in
  List.iter (fun (src, name) -> Printf.printf "%s: %s is read by no other unit\n" src name) unread;
  List.iter
    (fun (src, name, l) -> Printf.printf "%s: %s ?%s is set by no program call\n" src name l)
    unset;
  Printf.printf
    "%d values declared in lib/*/*.mli: %d read by no other unit, %d read only from test/; \
     %d option slots: %d set by no program call\n"
    (Hashtbl.length declared) (List.length unread) !test_only !slots (List.length unset);
  if unread <> [] || unset <> [] then exit 1
