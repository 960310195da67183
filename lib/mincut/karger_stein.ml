module Ugraph = Dcs_graph.Ugraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut
module Prng = Dcs_util.Prng

(* Recursive contraction on frozen rows. A level of r classes contracts
   twice, independently, to ⌈r/√2⌉ + 1 classes with Karger's clock heap
   ({!Karger.contract}); the quotient builder freezes each result as the
   next level's rows, and the lighter sub-answer's side lifts back
   through its class map. Six or fewer classes go to the exact solver.
   Both attempts of a level share the one scratch: an attempt's
   contraction is over (its class map extracted) before it recurses. *)
let rec recurse rng s (rows : Csr.rows) =
  let r = Array.length rows.off - 1 in
  if r <= 6 then Stoer_wagner.mincut_rows rows
  else begin
    let classes = 1 + int_of_float (Float.ceil (float_of_int r /. sqrt 2.0)) in
    let edges = Csr.canonical_edges rows in
    let attempt () =
      match Karger.contract rng s ~edges ~n:r ~classes with
      | None -> invalid_arg "Karger_stein: graph disconnected"
      | Some f ->
          let v, side = recurse rng s (Csr.quotient_rows rows f classes) in
          (v, Array.map (fun c -> side.(c)) f)
    in
    let v1, side1 = attempt () in
    let v2, side2 = attempt () in
    if v1 <= v2 then (v1, side1) else (v2, side2)
  end

(* One run on a domain's scratch; the reported value is the side's exact
   weight in the input. *)
let run_once_scratch rng s ~n csr =
  if n < 2 then invalid_arg "Karger_stein.run_once: need >= 2 vertices";
  let _, side = recurse rng s (Csr.out_rows csr) in
  let cut = Cut.of_array side in
  (Csr.cut_value csr cut, cut)

let scratch_for g =
  Karger.make_scratch ~edges:(Ugraph.m g) ~vertices:(Ugraph.n g)

let run_once rng g =
  run_once_scratch rng (scratch_for g) ~n:(Ugraph.n g) (Csr.of_ugraph g)

let mincut ?domains ?runs rng g =
  let n = Ugraph.n g in
  let runs =
    match runs with
    | Some r -> max 1 r
    | None ->
        let l = int_of_float (Float.ceil (Dcs_util.Stats.log2 (float_of_int (max 2 n)))) in
        (l * l) + 1
  in
  (* Independent recursive runs fan out over domains through the pool,
     each domain contracting on one scratch; run [t]'s stream is a pure
     function of (master, t) and the min is taken in run order, so the
     answer is bit-identical for every domain count. *)
  let master = Prng.fork rng in
  let csr = Csr.of_ugraph g in
  let results =
    Dcs_util.Pool.run_batched ?domains
      ~arena:(fun () -> scratch_for g)
      ~n:runs
      (fun s t -> run_once_scratch (Prng.split master t) s ~n csr)
  in
  let best = ref results.(0) in
  for t = 1 to runs - 1 do
    let v, _ = results.(t) in
    if v < fst !best then best := results.(t)
  done;
  !best
