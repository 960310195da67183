(** β-balance of directed graphs (Definition 2.1).

    A strongly connected digraph is β-balanced when every directed cut
    satisfies w(S, V\S) <= β · w(V\S, S). The exact balance factor is a
    maximum over exponentially many cuts; we provide the exact value for
    small graphs, a per-edge sufficient upper bound (each edge having a
    reverse edge of weight >= w/β implies β-balance — the argument the paper
    uses for both of its constructions), and a sampled lower bound. *)

val of_cut : Digraph.t -> Cut.t -> float
(** w(S,V\S) / w(V\S,S) for one cut; [infinity] when the denominator is 0
    and the numerator is positive; 1 when both are 0. *)

val exact : Digraph.t -> float
(** Max of [of_cut] over all proper cuts. Requires [n <= 24] (enumerates
    2^(n-1) - 1 cuts, exploiting the S ↔ V\S symmetry pairing). *)

val edgewise_upper_bound : Digraph.t -> float
(** Max over edges (u,v) of w(u,v)/w(v,u) ([infinity] if some edge has no
    reverse). Always an upper bound on [exact]. *)

val sampled_lower_bound : Dcs_util.Prng.t -> trials:int -> Digraph.t -> float
(** Max of [of_cut] over random cuts and all singleton cuts — a lower bound
    witness for the true balance. *)
