(** Sylvester–Hadamard matrices H_{2^k} over {-1, +1}.

    Entries are defined implicitly by H[i][j] = (-1)^popcount(i AND j), which
    is exactly the Sylvester recursion H_{2m} = [[H_m, H_m], [H_m, -H_m]]
    with H_1 = [1]. Row 0 is the all-ones row; rows are pairwise orthogonal
    with squared norm 2^k. The matrix is symmetric.

    This is the engine behind the Lemma 3.2 decode matrix of the paper's
    Section 3 lower bound. *)

type t

val create : int -> t
(** [create k] is H_{2^k}; requires [0 <= k <= 20]. *)

val order : t -> int
(** Number of rows/columns, 2^k. *)

val entry : t -> int -> int -> int
(** [entry h i j] in {-1, +1}; O(1), no materialization. *)

val row : t -> int -> int array
(** Materialize row [i]. *)

val dot_rows : t -> int -> int -> int
(** Inner product of two rows: [2^k] if equal, 0 otherwise (computed, used
    by tests to validate [entry]). *)

val fwht_in_place : float array -> unit
(** Fast Walsh–Hadamard transform: replaces [v] with H·v where H is the
    Sylvester matrix of matching order. Length must be a power of two.
    O(q log q). Involution up to scaling: H·(H·v) = q·v. *)

val transform2 : t -> float array array -> float array array
(** [transform2 h z] computes H·Z·H for a q×q matrix [z] (two-sided
    transform via row and column FWHTs). Does not modify [z]. *)
