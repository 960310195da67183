(** Aligned plain-text tables for the benchmark harness.

    The benches print paper-style result tables to stdout; this module keeps
    the formatting in one place so every experiment renders consistently. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a caption row and fixed column headers. *)

val add_row : t -> string list -> unit
(** Rows must match the column count. *)

val add_rule : t -> unit
(** Horizontal separator between row groups. *)

val render : t -> string

val print : t -> unit
(** [render] followed by a trailing newline on stdout. When capture is on
    ({!set_capture}), the table is also recorded for a later JSON dump. *)

(** {2 Capture / machine-readable export}

    The bench harness's [--json] flag records every printed table and dumps
    the run as structured JSON, so benchmark trajectories can be diffed by
    tools instead of eyeballs. *)

val set_capture : bool -> unit
(** Start ([true]) or stop-and-clear ([false]) recording printed tables. *)

val captured : unit -> t list
(** Tables recorded so far, in print order. *)

val captured_count : unit -> int

val to_json : t -> string
(** [{"title":..., "columns":[...], "rows":[[...], ...]}]; separator rules
    are presentation only and are omitted. *)

(** Cell formatting helpers. *)

val fint : int -> string
val ffloat : ?digits:int -> float -> string
val fpct : float -> string
(** Percentage with one decimal, e.g. [fpct 0.953 = "95.3%"]. *)

val fbool : bool -> string
(** "yes" / "no". *)
