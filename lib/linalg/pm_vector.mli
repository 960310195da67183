(** Vectors over {-1, +1} and their tensor products.

    These are the h_A, h_B vectors of the paper's Section 3: each decode-
    matrix row factors as a tensor product u ⊗ v of two balanced ±1 vectors,
    and the positive support of u (resp. v) names the node subset A ⊂ L_i
    (resp. B ⊂ R_j) that Bob queries. *)

type t = int array
(** Invariant: every entry is -1 or +1. Constructors check this. *)

val of_array : int array -> t
(** Validates entries. *)

val dot : t -> t -> int

val sum : t -> int
(** Inner product with the all-ones vector. *)

val is_balanced : t -> bool
(** [sum v = 0]. *)

val tensor : t -> t -> t
(** [tensor u v] has length [|u| * |v|], entry [(i*|v| + j) = u.(i) * v.(j)].
    Matches the edge indexing of Section 3 ("first by u ∈ L_i then by
    v ∈ R_j"). *)

val positive_support : t -> int array
(** Indices with entry +1, increasing. *)

val negative_support : t -> int array

val dot_float : t -> float array -> float
(** ⟨v, w⟩ for a real vector [w] of the same length. *)
