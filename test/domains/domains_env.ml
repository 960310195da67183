(* [with_domains d f] runs [f ()] with DCS_DOMAINS set to [d], then puts
   back the value it had (the empty string when it was unset, which
   [Pool.domain_count] reads as unset). *)
let with_domains d f =
  let prev = Option.value ~default:"" (Sys.getenv_opt "DCS_DOMAINS") in
  Unix.putenv "DCS_DOMAINS" (string_of_int d);
  Fun.protect ~finally:(fun () -> Unix.putenv "DCS_DOMAINS" prev) f
