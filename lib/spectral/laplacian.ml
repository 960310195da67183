module Ugraph = Dcs_graph.Ugraph
module Cut = Dcs_graph.Cut

type t = { size : int; mat : float array array }

let of_ugraph g =
  let n = Ugraph.n g in
  let mat = Array.make_matrix n n 0.0 in
  Array.iter
    (fun (u, v, w) ->
      mat.(u).(v) <- mat.(u).(v) -. w;
      mat.(v).(u) <- mat.(v).(u) -. w;
      mat.(u).(u) <- mat.(u).(u) +. w;
      mat.(v).(v) <- mat.(v).(v) +. w)
    (Ugraph.edges g);
  { size = n; mat }

let n t = t.size

let entry t i j = t.mat.(i).(j)

let apply t x =
  if Array.length x <> t.size then invalid_arg "Laplacian.apply: length";
  Array.init t.size (fun i ->
      let acc = ref 0.0 in
      for j = 0 to t.size - 1 do
        acc := !acc +. (t.mat.(i).(j) *. x.(j))
      done;
      !acc)

let quadratic_form t x =
  let lx = apply t x in
  let acc = ref 0.0 in
  Array.iteri (fun i v -> acc := !acc +. (x.(i) *. v)) lx;
  !acc

let cut_value t c =
  if Cut.n c <> t.size then invalid_arg "Laplacian.cut_value: size";
  quadratic_form t (Array.init t.size (fun v -> if Cut.mem c v then 1.0 else 0.0))

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
  if Array.length b <> t.size then invalid_arg "Laplacian.solve: length";
  let b = deflate b in
  let x = Array.make t.size 0.0 in
  let r = Array.copy b in
  let p = Array.copy b in
  let rs_old = ref (dot r r) in
  let b_norm = sqrt (dot b b) in
  if b_norm < tol then x
  else begin
    (try
       for _ = 1 to 10 * t.size do
         let lp = apply t p in
         let denom = dot p lp in
         if Float.abs denom < 1e-300 then raise Exit;
         let alpha = !rs_old /. denom in
         for i = 0 to t.size - 1 do
           x.(i) <- x.(i) +. (alpha *. p.(i));
           r.(i) <- r.(i) -. (alpha *. lp.(i))
         done;
         let rs_new = dot r r in
         if sqrt rs_new <= tol *. b_norm then raise Exit;
         let beta = rs_new /. !rs_old in
         for i = 0 to t.size - 1 do
           p.(i) <- r.(i) +. (beta *. p.(i))
         done;
         rs_old := rs_new
       done
     with Exit -> ());
    deflate x
  end
