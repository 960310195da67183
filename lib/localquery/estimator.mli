(** Global min-cut estimation in the local query model (BGMP21, with the
    Theorem 5.7 modification).

    Both variants run the same guess-halving search: start from an upper
    bound on k (the minimum degree, obtained with n degree queries), call
    VERIFY-GUESS, halve on reject. They differ in the accuracy of the
    search calls and hence in the safety margin the final call must absorb:

    - [Original]: every call runs at the target accuracy ε; the reject
      guarantee of VERIFY-GUESS(·, ·, ε) only kicks in at κ(ε) = Θ(ln n/ε²)
      times the true k, so the final confirming call runs at guess
      t/κ(ε) — total Õ(m/(ε⁴·k)) queries.
    - [Modified] (Theorem 5.7): search calls run at a fixed constant β₀;
      the margin shrinks to κ(β₀) = Θ(ln n), and only the single final call
      runs at accuracy ε — total Õ(m/(ε²·k)).

    The margins are constants: the modified final guess is t/4 and the
    original one is t/(4/ε²), reproducing the two κ regimes with the
    ln n factor dropped at laptop scale (recorded in EXPERIMENTS.md). *)

type mode = Original | Modified

type result = {
  estimate : float;
  accepted : bool;            (** whether the final VERIFY-GUESS accepted *)
  degree_queries : int;
  edge_queries : int;
  total_queries : int;
  comm_bits : int;            (** Lemma 5.6 accounting from the oracle *)
  search_calls : int;         (** VERIFY-GUESS invocations during search *)
}

val estimate :
  ?c0:float ->
  Dcs_util.Prng.t ->
  Oracle.t ->
  eps:float ->
  mode:mode ->
  result
(** Resets the oracle meters before starting, so the reported counts are
    exactly this run's. [c0] (default 2.0) is VERIFY-GUESS's
    oversampling; search calls in [Modified] mode run at accuracy 0.5.

    Against a faulty oracle ({!Oracle.create} with [fault]) every retry
    and vote is charged to the meters, so the reported counts measure the
    true robustness overhead against the Theorem 5.7 budget, and a query
    that outlives its retry budget raises {!Oracle.Exhausted}. *)
