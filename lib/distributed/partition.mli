(** Edge partitioning for the distributed min-cut setting: the input graph's
    edges are split across servers; every server sees the full vertex set
    but only its own edges. *)

val random :
  Dcs_util.Prng.t -> servers:int -> Dcs_graph.Ugraph.t -> Dcs_graph.Ugraph.t array
(** Each edge assigned to a uniformly random server. *)

val union : int -> Dcs_graph.Ugraph.t array -> Dcs_graph.Ugraph.t
(** Re-merge shards (weights add). *)
