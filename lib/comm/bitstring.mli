(** Binary strings for the communication problems of Sections 4 and 5. *)

type t = bool array

val zeros : int -> t
val length : t -> int

val random : Dcs_util.Prng.t -> int -> t
(** Uniform over {0,1}^n. *)

val random_weight : Dcs_util.Prng.t -> n:int -> weight:int -> t
(** Uniform over strings of length [n] with exactly [weight] ones. *)

val hamming_weight : t -> int

val hamming_distance : t -> t -> int

val intersection_size : t -> t -> int
(** INT(x, y) = #\{i : x_i = y_i = 1\} (Definition 5.1). *)

val disjoint : t -> t -> bool
(** DISJ(x, y) = (INT(x, y) = 0). *)

val ones : t -> int list
(** Indices of the 1-entries, increasing. *)

val concat : t list -> t
