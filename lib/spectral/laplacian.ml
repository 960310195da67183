module Ugraph = Dcs_graph.Ugraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut

(* The frozen symmetric rows hold the off-diagonal entries (−w at each
   neighbour, neighbours ascending); [diag] holds the weighted degrees,
   each summed in row order. *)
type t = { csr : Csr.t; diag : float array }

let of_ugraph g =
  let csr = Csr.of_ugraph g in
  let { Csr.off; w; _ } = Csr.out_rows csr in
  let diag =
    Array.init (Ugraph.n g) (fun u ->
        let acc = ref 0.0 in
        for k = off.(u) to off.(u + 1) - 1 do
          acc := !acc +. w.(k)
        done;
        !acc)
  in
  { csr; diag }

let n t = Array.length t.diag

let entry t i j = if i = j then t.diag.(i) else 0.0 -. Csr.weight t.csr i j

(* Row i's nonzero products in ascending column order, the diagonal term
   at column i: the dense row's sum in the dense row's order, whose zero
   entries added nothing. *)
let apply t x =
  if Array.length x <> n t then invalid_arg "Laplacian.apply: length";
  let { Csr.off; dst; w } = Csr.out_rows t.csr in
  Array.init (n t) (fun i ->
      let acc = ref 0.0 and k = ref off.(i) in
      while !k < off.(i + 1) && dst.(!k) < i do
        acc := !acc -. (w.(!k) *. x.(dst.(!k)));
        incr k
      done;
      acc := !acc +. (t.diag.(i) *. x.(i));
      for k = !k to off.(i + 1) - 1 do
        acc := !acc -. (w.(k) *. x.(dst.(k)))
      done;
      !acc)

let quadratic_form t x =
  let lx = apply t x in
  let acc = ref 0.0 in
  Array.iteri (fun i v -> acc := !acc +. (x.(i) *. v)) lx;
  !acc

let cut_value t c =
  if Cut.n c <> n t then invalid_arg "Laplacian.cut_value: size";
  quadratic_form t (Array.init (n t) (fun v -> if Cut.mem c v then 1.0 else 0.0))

let dot a b =
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

(* Project out the all-ones component (the Laplacian's kernel on a
   connected graph). *)
let deflate x =
  let n = Array.length x in
  let mean = Array.fold_left ( +. ) 0.0 x /. float_of_int n in
  Array.map (fun v -> v -. mean) x

let tol = 1e-9

let solve t b =
  let size = n t in
  if Array.length b <> size then invalid_arg "Laplacian.solve: length";
  let b = deflate b in
  let x = Array.make size 0.0 in
  let r = Array.copy b in
  let p = Array.copy b in
  let rs_old = ref (dot r r) in
  let b_norm = sqrt (dot b b) in
  if b_norm < tol then x
  else begin
    (try
       for _ = 1 to 10 * size do
         let lp = apply t p in
         let denom = dot p lp in
         if Float.abs denom < 1e-300 then raise Exit;
         let alpha = !rs_old /. denom in
         for i = 0 to size - 1 do
           x.(i) <- x.(i) +. (alpha *. p.(i));
           r.(i) <- r.(i) -. (alpha *. lp.(i))
         done;
         let rs_new = dot r r in
         if sqrt rs_new <= tol *. b_norm then raise Exit;
         let beta = rs_new /. !rs_old in
         for i = 0 to size - 1 do
           p.(i) <- r.(i) +. (beta *. p.(i))
         done;
         rs_old := rs_new
       done
     with Exit -> ());
    deflate x
  end
