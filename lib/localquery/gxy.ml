module Bitstring = Dcs_comm.Bitstring
module Ugraph = Dcs_graph.Ugraph
module Cut = Dcs_graph.Cut

type vertex_class = A | A' | B | B'

let side ~n =
  let l = int_of_float (Float.round (sqrt (float_of_int n))) in
  if l * l <> n then invalid_arg "Gxy: length must be a perfect square";
  l

let vertex ~side:l cls idx =
  if idx < 0 || idx >= l then invalid_arg "Gxy.vertex: index";
  match cls with
  | A -> idx
  | A' -> l + idx
  | B -> (2 * l) + idx
  | B' -> (3 * l) + idx

let classify ~side:l v =
  if v < 0 || v >= 4 * l then invalid_arg "Gxy.classify";
  match v / l with
  | 0 -> (A, v mod l)
  | 1 -> (A', v mod l)
  | 2 -> (B, v mod l)
  | _ -> (B', v mod l)

let build ~x ~y =
  let n = Bitstring.length x in
  if Bitstring.length y <> n then invalid_arg "Gxy.build: length mismatch";
  let l = side ~n in
  let g = Ugraph.create (4 * l) in
  for i = 0 to l - 1 do
    for j = 0 to l - 1 do
      let idx = (i * l) + j in
      if x.(idx) && y.(idx) then begin
        Ugraph.add_edge g (vertex ~side:l A i) (vertex ~side:l B' j) 1.0;
        Ugraph.add_edge g (vertex ~side:l B i) (vertex ~side:l A' j) 1.0
      end
      else begin
        Ugraph.add_edge g (vertex ~side:l A i) (vertex ~side:l A' j) 1.0;
        Ugraph.add_edge g (vertex ~side:l B i) (vertex ~side:l B' j) 1.0
      end
    done
  done;
  g

let witness_cut ~side:l =
  Cut.of_mem ~n:(4 * l) (fun v -> v < 2 * l)

let predicted_mincut ~x ~y =
  let n = Bitstring.length x in
  let l = side ~n in
  let int_xy = Bitstring.intersection_size x y in
  if l >= 3 * int_xy then Some (2 * int_xy) else None
