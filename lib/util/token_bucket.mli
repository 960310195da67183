(** Deterministic token-bucket rate limiter over a virtual clock.

    The serving layer ({!Dcs_serve.Serve}) admits requests against a budget
    that refills continuously: a bucket holds up to [capacity] tokens,
    gains [rate_num / rate_den] tokens per virtual tick, and a request is
    admitted iff a whole token can be taken at its arrival tick. Everything
    is integer arithmetic on micro-tokens (token * [rate_den]), so the
    admission decisions are a pure function of the arrival tick sequence —
    no floats to drift, no wall clock — and replay bit for bit.

    Time only moves forward: queries and takes must be issued at
    nondecreasing ticks ([Invalid_argument] otherwise), which is exactly the
    order an event loop produces. *)

type t

val create : capacity:int -> rate_num:int -> rate_den:int -> t
(** A full bucket that refills at [rate_num / rate_den] tokens per tick,
    clamped to [capacity]. Requires [capacity >= 1], [rate_num >= 0],
    [rate_den >= 1]. The clock starts at tick 0. *)

val try_take : t -> now:int -> bool
(** Advance the bucket to tick [now] (refilling), then take one token if a
    whole one is available. [true] iff the take succeeded. Requires [now]
    to be >= the last tick seen. *)

val tokens : t -> now:int -> int
(** Whole tokens available at tick [now] (advances the clock like
    {!try_take}, takes nothing). *)

val capacity : t -> int
