(** Maximum-adjacency (MA) orders and Nagamochi–Ibaraki contraction over
    frozen symmetric rows: the kernel of the exact minimum-cut solver
    ({!Stoer_wagner}) and the first tier of
    [Connectivity.estimate_ugraph].

    An MA order (Nagamochi–Ibaraki's scan-first search) visits, at every
    step, the unvisited vertex most heavily attached to the visited set.
    The attachment q(e) of an edge e = (x, y), with x scanned first, is
    y's attachment right after e was added, and λ(x, y) >= q(e): one
    O(m log n) pass lower-bounds every edge's local connectivity, and the
    order's last vertex is separated from the one before it by exactly
    its weighted degree (Stoer–Wagner's phase lemma). {!merge} contracts
    the pairs a pass certifies; {!contract} repeats passes at a fixed
    cap, so that min(cap, λ) of every pair of the input is min(cap, λ)
    of its classes in the quotient G/S. *)

val scan : Dcs_graph.Csr.rows -> int array * float array
(** [scan rows] is one MA order of the symmetric rows [rows] (an
    undirected view: {!Dcs_graph.Csr.out_rows} of [Csr.of_ugraph g]): the
    vertices in scan order — from vertex 0, ties to the smaller vertex,
    an exhausted component handing over to the smallest unvisited vertex
    — and, per arc slot of [rows], q(e) on the slot of the endpoint
    scanned first and 0 on the other. A pure function of the rows. *)

val merge :
  cap:float ->
  last:bool ->
  int array ->
  Dcs_graph.Csr.rows ->
  int array * float array ->
  Dcs_graph.Csr.rows option
(** [merge ~cap ~last label rows (scan rows)] merges every pair with
    q(e) >= [cap] and, when [last], the order's last two vertices;
    numbers the classes by smallest member, maps [label] (input vertex
    -> vertex of [rows]) through that numbering in place and returns
    G/S ({!Dcs_graph.Csr.quotient_rows}). [None], [label] untouched,
    when nothing merged. *)

type t

val contract : cap:float -> Dcs_graph.Csr.rows -> t
(** Scan, merge every pair with q(e) >= [cap], relabel the classes by
    their smallest member and scan the quotient again, until a pass
    merges nothing or one class is left. Parallel arcs between two
    classes merge into one of summed weight, each sum in ascending
    (member, endpoint) order. Raises [Invalid_argument] unless
    [cap > 0]. *)

val classes : t -> int
(** Number of classes (vertices of G/S); the input's vertex count when
    nothing merged. *)

val label : t -> int -> int
(** Class of an input vertex, in [\[0, classes t)]. Two vertices of one
    class are at least [cap]-connected. *)

val passes : t -> int
(** Scans run. *)

val attachment : t -> int -> int -> float
(** [attachment t a b] is the last scan's q of the class pair (a, b): a
    lower bound on λ_{G/S}(a, b), and so — below [cap] — on λ_G(x, y)
    for every x of class [a] and y of class [b]. 0 when the classes are
    not adjacent; meaningless when one class is left (no scan ran on
    it). *)

val quotient : t -> Dcs_graph.Csr.t
(** G/S frozen as a symmetric view over the classes; a capped flow
    between two classes on it is min(cap, λ) of any pair of their
    members in the input. *)
