(** The cut-sketch abstraction (Definitions 2.2 and 2.3).

    A sketch is any data structure from which directed cut values can be
    estimated. The lower-bound decoders of Sections 3 and 4 consume this
    interface only — they never look inside — which is exactly the shape of
    the paper's reductions ("Alice runs any sketching algorithm and sends
    the sketch to Bob").

    [size_bits] is the honest serialized size of the structure, the
    quantity the lower bounds speak about. [graph] is exposed when the
    sketch happens to be a (sparsified) graph; graph-valued sketches
    support richer queries (e.g. the additive per-vertex estimates used by
    the polynomial variant of the Section 4 decoder). *)

type t = {
  name : string;
  size_bits : int;
  query : Dcs_graph.Cut.t -> float;  (** estimate of w(S, V\S) *)
  graph : Dcs_graph.Digraph.t option;
}

val of_digraph : name:string -> size_bits:int -> Dcs_graph.Digraph.t -> t
(** Graph-valued sketch: queries are exact cuts of the given graph. *)

val relative_error : t -> Dcs_graph.Digraph.t -> Dcs_graph.Cut.t -> float
(** |estimate - truth| / |truth| against a reference graph. Zero-cut edge
    cases are exact, not tolerance-based: 0 when the true cut is 0 and the
    estimate is exactly 0; infinite if only the truth is 0 (any nonzero
    estimate of a zero cut has unbounded relative error). A zero estimate
    of a nonzero cut is the ordinary case with value 1. *)

val digraph_encoding_bits : Dcs_graph.Digraph.t -> int
(** Canonical size of sending a weighted digraph: per edge, two
    ceil(log2 n)-bit endpoints and a 64-bit weight, plus a small header.
    Used as the size of every graph-valued sketch. *)

val ugraph_encoding_bits : Dcs_graph.Ugraph.t -> int
(** Same, counting each undirected edge once. *)

val checksum_bits : int
(** Canonical overhead of making an encoding self-checking (a CRC-32
    field, {!Dcs_util.Checksum}): 32 bits per message. Metered separately
    from the payload so fault-tolerant pipelines report the same first-send
    payload bits as their idealized counterparts. *)

val median_boost : t list -> t
(** The paper's footnote-2 amplification: run O(1) independent sketches and
    answer each query with the median estimate, boosting per-cut success
    from 2/3 to 99/100 at a constant-factor size cost. [size_bits] is the
    sum of the parts; [graph] is kept only if all parts share one. *)
