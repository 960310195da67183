(** Reachability and connectivity. *)

val is_connected : Ugraph.t -> bool
(** True on the empty and 1-vertex graphs. *)

val connected_components : Ugraph.t -> int array
(** Component id per vertex, ids dense from 0. *)

val component_count : Ugraph.t -> int

val is_strongly_connected : Digraph.t -> bool
(** Forward and backward reachability from vertex 0 (n <= 1 is true). *)
