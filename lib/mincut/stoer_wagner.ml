module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut

(* Nagamochi–Ibaraki contraction over the frozen rows. Each pass first
   bounds the answer by every class's weighted degree — each one the
   weight of a real cut, the class's members against the rest — and keeps
   the lightest bound so far with its class's members as the side. Then
   one maximum-adjacency order merges every pair whose attachment reaches
   that bound, plus the order's last two vertices. Both merges are safe:
   a cut lighter than the bound separates no pair with λ >= q(e) >=
   bound, and the last pair's λ is the last vertex's degree (the phase
   lemma), which the bound already covers. So a lighter cut, if there is
   one, survives into the quotient. Every pass merges at least the last
   pair; the loop stops at two classes (their one cut is a bound already)
   or at a zero bound (a class with no edge out is exact — the answer for
   a disconnected graph). *)
let mincut_rows (rows : Csr.rows) =
  let n = Array.length rows.off - 1 in
  if n < 2 then invalid_arg "Stoer_wagner.mincut: need at least 2 vertices";
  let label = Array.init n Fun.id in
  let best = ref infinity and side = ref [||] in
  let rec pass (rows : Csr.rows) =
    let k = Array.length rows.off - 1 in
    if k >= 2 then begin
      let light = ref 0 and bound = ref infinity in
      for c = 0 to k - 1 do
        let d = ref 0.0 in
        for i = rows.off.(c) to rows.off.(c + 1) - 1 do
          d := !d +. rows.w.(i)
        done;
        if !d < !bound then begin
          bound := !d;
          light := c
        end
      done;
      if !bound < !best then begin
        best := !bound;
        side := Array.map (fun c -> c = !light) label
      end;
      if k > 2 && !best > 0.0 then
        Option.iter pass
          (Max_adjacency.merge ~cap:!best ~last:true label rows
             (Max_adjacency.scan rows))
    end
  in
  pass rows;
  (!best, !side)

let mincut g =
  let value, side = mincut_rows (Csr.out_rows (Csr.of_ugraph g)) in
  (value, Cut.of_array side)

let mincut_value g = fst (mincut g)
