(** Plain-text graph (de)serialization.

    Format — one header line with the vertex count, then one edge per line:
    {v
    <n>
    <u> <v> <w>
    ...
    v}
    Weights round-trip exactly (printed with 17 significant digits). Used
    by the [dcut] CLI and handy for fixtures.

    Parsing is line by line. Blank lines are skipped; the first other
    line must be one integer [0 <= n <= max_vertices], and every later one
    exactly three fields [u v w] with [0 <= u, v < n], [u <> v] and a
    finite [w >= 0]. Anything else is an [Error] naming the 1-based line
    number and the reason, as are repeated edges whose weights sum past
    the largest float; a parser never raises. *)

val max_vertices : int
(** 2^20: the largest vertex count a parser accepts. Far above what the
    quadratic and cubic solvers can run, and it keeps a one-line input
    from allocating a graph of empty adjacency tables. *)

val ugraph_to_string : Ugraph.t -> string
val ugraph_of_string : string -> (Ugraph.t, string) result
val digraph_to_string : Digraph.t -> string
val digraph_of_string : string -> (Digraph.t, string) result

val output_ugraph : out_channel -> Ugraph.t -> unit
val input_ugraph : in_channel -> (Ugraph.t, string) result
val output_digraph : out_channel -> Digraph.t -> unit
val input_digraph : in_channel -> (Digraph.t, string) result

(** {2 Checksummed frames}

    A graph sent over a lossy channel ({!Dcs_comm.Channel.transmit}) goes
    in a {!Dcs_util.Checksum.frame}: a header line
    [DCS1 <payload-length> <crc32-hex>] followed by the payload. CRC-32
    detects every single-bit flip anywhere in the frame (header included:
    a damaged header fails to parse or disagrees with the payload), so a
    receiver can always distinguish a corrupted delivery from a clean one
    and ask for a retransmission. *)

val ugraph_to_frame : Ugraph.t -> string
(** [Checksum.frame] of [ugraph_to_string]. *)

val ugraph_of_frame : string -> (Ugraph.t, string) result
(** Verifies the checksum, then parses. *)
