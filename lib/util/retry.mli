(** Bounded retry with (simulated) exponential backoff, and majority
    voting — the two recovery mechanisms the fault-tolerant protocol layers
    share.

    There is no wall clock in these simulations, so backoff is virtual:
    a failed attempt [a] (0-based) charges [2^a] backoff units before the
    next try, and the total is reported so experiments can compare recovery
    latency across fault rates. The attempt count {e never} exceeds the
    budget — a property test enforces this. *)

type 'a outcome = {
  value : 'a option;       (** first successful answer, if any *)
  attempts : int;          (** calls made: in [1, budget] *)
  backoff_units : int;     (** Σ 2^a over failed attempts that were retried *)
}

val with_budget : budget:int -> (attempt:int -> 'a option) -> 'a outcome
(** [with_budget ~budget f] calls [f ~attempt:0], [f ~attempt:1], … until
    [f] returns [Some _] or [budget] calls have been made. Requires
    [budget >= 1]. *)

val majority : k:int -> (int -> 'a option) -> ('a * int) option
(** [majority ~k f] collects [f 0 .. f (k-1)] ([None]s abstain) and returns
    the most frequent answer with its vote count (first-seen wins ties,
    polymorphic equality); [None] when every voter abstained. Requires
    [k >= 1]. *)

(** {2 Capped jittered exponential backoff}

    {!with_budget}'s schedule is the bare textbook one: attempt [a] waits
    exactly [2^a] units, unbounded. A serving layer wants two refinements
    (AWS "full jitter" style): a {e cap} so a long outage cannot park a
    request behind an exponentially huge wait, and {e jitter} so a burst of
    requests that failed together does not retry in lockstep and fail
    together again. Jitter here is deterministic: the wait before retrying
    failed attempt [a] is drawn from [Prng.split rng a] — a pure function of
    the caller's stream position and the attempt number — so runs replay
    bit for bit and never depend on scheduling. *)

val jittered_wait : rng:Prng.t -> base:int -> cap:int -> attempt:int -> int
(** The wait charged after failed attempt [a] (0-based): uniform in
    [1, min cap (base * 2^a)], drawn from [Prng.split rng a] without
    advancing [rng]. [base >= 1], [cap >= 1]; the exponential is clamped at
    [cap] before the draw, so the wait never exceeds [cap]. *)

val with_jittered_backoff :
  budget:int ->
  base:int ->
  cap:int ->
  rng:Prng.t ->
  (attempt:int -> 'a option) ->
  'a outcome
(** {!with_budget}'s loop — same attempt contract, same [attempts <= budget]
    guarantee — but each failed-and-retried attempt [a] charges
    {!jittered_wait} units instead of [2^a]: [backoff_units] is their sum
    and therefore never exceeds [(budget - 1) * cap]. [rng] is not advanced
    (pass a frozen per-request stream); equal stream positions give equal
    schedules. *)
