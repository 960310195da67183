module Digraph = Dcs_graph.Digraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut
module Bits = Dcs_util.Bits
module Metrics = Dcs_obs_core.Metrics

(* Every graph-valued sketch construction funnels through [of_digraph], so
   these two registry counters mirror the repo's bit accounting: the
   registry total equals the sum of [size_bits] over all sketches built.
   E18 cross-checks the equality. *)
let m_built = Metrics.counter "sketch.built"
let m_size_bits = Metrics.counter "sketch.size_bits"

type t = {
  name : string;
  size_bits : int;
  query : Cut.t -> float;
  graph : Digraph.t option;
}

let digraph_encoding_bits g =
  let c = Bits.create () in
  Bits.write_nonneg c (Digraph.n g);
  Bits.write_nonneg c (Digraph.m g);
  let vertex_bits = Bits.bits_for_range (max 2 (Digraph.n g)) in
  Digraph.iter_edges g (fun _ _ _ ->
      Bits.add c (2 * vertex_bits);
      Bits.add c 64);
  Bits.total c

let ugraph_encoding_bits g =
  let module Ugraph = Dcs_graph.Ugraph in
  let c = Bits.create () in
  Bits.write_nonneg c (Ugraph.n g);
  Bits.write_nonneg c (Ugraph.m g);
  let vertex_bits = Bits.bits_for_range (max 2 (Ugraph.n g)) in
  Ugraph.iter_edges g (fun _ _ _ ->
      Bits.add c (2 * vertex_bits);
      Bits.add c 64);
  Bits.total c

let checksum_bits = Dcs_util.Checksum.bits
let of_digraph ~name ~size_bits g =
  Metrics.inc m_built;
  Metrics.inc ~by:size_bits m_size_bits;
  (* Freeze once at construction; every query is then a flat-array scan
     instead of a hashtable walk. [graph] still exposes the mutable source
     for decoders that want per-edge access. *)
  let csr = Csr.of_digraph g in
  { name; size_bits; query = (fun s -> Csr.cut_value csr s); graph = Some g }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median_boost parts =
  match parts with
  | [] -> invalid_arg "Sketch.median_boost: no sketches"
  | first :: _ ->
      {
        name = Printf.sprintf "median-of-%d(%s)" (List.length parts) first.name;
        size_bits = List.fold_left (fun acc s -> acc + s.size_bits) 0 parts;
        query = (fun c -> median (List.map (fun s -> s.query c) parts));
        graph = None;
      }

let relative_error sk g s =
  let truth = Cut.value g s in
  let est = sk.query s in
  if truth = 0.0 then if est = 0.0 then 0.0 else infinity
  else Float.abs (est -. truth) /. Float.abs truth
