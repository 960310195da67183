(** Small statistics toolkit used by tests and the benchmark harness. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 when n < 2. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [0,1], linear interpolation on the sorted
    copy. On a singleton array every quantile is the lone element. Raises
    [Invalid_argument] on an empty array and on [q] outside [0,1]
    (including NaN) — a silent clamp would hide caller bugs. *)

val min_max : float array -> float * float

val log2 : float -> float

val linear_regression : (float * float) array -> float * float
(** [linear_regression pts] returns [(slope, intercept)] of the least-squares
    line. Used for log-log slope estimation in scaling experiments. Requires
    at least two points with distinct x. *)

val loglog_slope : (float * float) array -> float
(** Slope of log y against log x; all coordinates must be positive. *)

val bucket_bars : int array -> string array
(** Proportional ['#'] bars for bucket counts, longest bar 24 marks,
    nonzero counts always at least one mark. Shared by the bench tables
    and the {!Dcs_obs.Report} histogram tables so every bucket rendering
    in the repo looks the same. Raises [Invalid_argument] on a
    negative count. *)
