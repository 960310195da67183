module Prng = Dcs_util.Prng

let erdos_renyi rng ~n ~p =
  let g = Ugraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.bernoulli rng p then Ugraph.add_edge g u v 1.0
    done
  done;
  g

let erdos_renyi_connected rng ~n ~p =
  let g = erdos_renyi rng ~n ~p in
  let perm = Prng.permutation rng n in
  for i = 0 to n - 2 do
    if not (Ugraph.mem_edge g perm.(i) perm.(i + 1)) then
      Ugraph.add_edge g perm.(i) perm.(i + 1) 1.0
  done;
  g

let gnm rng ~n ~m =
  let cap = n * (n - 1) / 2 in
  if m > cap then invalid_arg "Generators.gnm: too many edges";
  let g = Ugraph.create n in
  let placed = ref 0 in
  while !placed < m do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && not (Ugraph.mem_edge g u v) then begin
      Ugraph.add_edge g u v 1.0;
      incr placed
    end
  done;
  g

let random_digraph rng ~n ~p ~max_weight =
  let g = Digraph.create n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Prng.bernoulli rng p then begin
        let w = Prng.float rng max_weight in
        if w > 0.0 then Digraph.add_edge g u v w
      end
    done
  done;
  g

let balanced_digraph rng ~n ~p ~beta ~max_weight =
  if beta < 1.0 then invalid_arg "Generators.balanced_digraph: beta >= 1";
  let g = Digraph.create n in
  let add_pair u v w =
    (* Forward edge at weight w, reverse at w/beta: the edgewise condition
       guarantees β-balance of every cut. *)
    Digraph.add_edge g u v w;
    Digraph.add_edge g v u (w /. beta)
  in
  (* Random cycle for strong connectivity. *)
  let perm = Prng.permutation rng n in
  for i = 0 to n - 1 do
    let u = perm.(i) and v = perm.((i + 1) mod n) in
    add_pair u v (1.0 +. Prng.float rng max_weight)
  done;
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Prng.bernoulli rng p then
        add_pair u v (0.1 +. Prng.float rng max_weight)
    done
  done;
  g

let complete_bipartite_digraph ~left ~right ~fwd ~bwd =
  let g = Digraph.create (left + right) in
  for i = 0 to left - 1 do
    for j = 0 to right - 1 do
      let u = i and v = left + j in
      let wf = fwd i j in
      if wf > 0.0 then Digraph.add_edge g u v wf;
      let wb = bwd i j in
      if wb > 0.0 then Digraph.add_edge g v u wb
    done
  done;
  g

let planted_mincut rng ~block ~k ~p_inner =
  (* Only block² cross pairs exist: more cross edges would never place. *)
  if k > block * block then invalid_arg "Generators.planted_mincut: k > block²";
  let n = 2 * block in
  let g = Ugraph.create n in
  let fill offset =
    for u = 0 to block - 1 do
      for v = u + 1 to block - 1 do
        if Prng.bernoulli rng p_inner then
          Ugraph.add_edge g (offset + u) (offset + v) 1.0
      done
    done;
    let perm = Prng.permutation rng block in
    for i = 0 to block - 2 do
      let u = offset + perm.(i) and v = offset + perm.(i + 1) in
      if not (Ugraph.mem_edge g u v) then Ugraph.add_edge g u v 1.0
    done
  in
  fill 0;
  fill block;
  let placed = ref 0 in
  while !placed < k do
    let u = Prng.int rng block and v = block + Prng.int rng block in
    if not (Ugraph.mem_edge g u v) then begin
      Ugraph.add_edge g u v 1.0;
      incr placed
    end
  done;
  g

let cycle ~n =
  let g = Ugraph.create n in
  if n >= 2 then
    for i = 0 to n - 1 do
      let j = (i + 1) mod n in
      if not (Ugraph.mem_edge g i j) then Ugraph.add_edge g i j 1.0
    done;
  g

let path ~n =
  let g = Ugraph.create n in
  for i = 0 to n - 2 do
    Ugraph.add_edge g i (i + 1) 1.0
  done;
  g

let complete ~n =
  let g = Ugraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Ugraph.add_edge g u v 1.0
    done
  done;
  g

let hypercube ~dim =
  if dim < 1 || dim > 20 then invalid_arg "Generators.hypercube: dim in [1,20]";
  let n = 1 lsl dim in
  let g = Ugraph.create n in
  for v = 0 to n - 1 do
    for b = 0 to dim - 1 do
      let u = v lxor (1 lsl b) in
      if u > v then Ugraph.add_edge g v u 1.0
    done
  done;
  g

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Generators.grid";
  let g = Ugraph.create (rows * cols) in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then Ugraph.add_edge g (id r c) (id r (c + 1)) 1.0;
      if r + 1 < rows then Ugraph.add_edge g (id r c) (id (r + 1) c) 1.0
    done
  done;
  g

let preferential_attachment rng ~n ~m_per_node =
  if m_per_node < 1 then invalid_arg "Generators.preferential_attachment: m >= 1";
  if n < m_per_node + 1 then
    invalid_arg "Generators.preferential_attachment: n too small";
  let g = Ugraph.create n in
  let seed = m_per_node + 1 in
  for u = 0 to seed - 1 do
    for v = u + 1 to seed - 1 do
      Ugraph.add_edge g u v 1.0
    done
  done;
  (* endpoint pool: each edge contributes both endpoints, so sampling from
     the pool is degree-proportional *)
  let pool = ref [] in
  Ugraph.iter_edges g (fun u v _ -> pool := u :: v :: !pool);
  let pool = ref (Array.of_list !pool) in
  let pool_len = ref (Array.length !pool) in
  let push x =
    if !pool_len >= Array.length !pool then begin
      let bigger = Array.make (max 16 (2 * Array.length !pool)) 0 in
      Array.blit !pool 0 bigger 0 !pool_len;
      pool := bigger
    end;
    !pool.(!pool_len) <- x;
    incr pool_len
  in
  for v = seed to n - 1 do
    let chosen = Hashtbl.create m_per_node in
    let guard = ref 0 in
    while Hashtbl.length chosen < m_per_node && !guard < 100 * m_per_node do
      incr guard;
      let u = !pool.(Prng.int rng !pool_len) in
      if u <> v then Hashtbl.replace chosen u ()
    done;
    Hashtbl.iter
      (fun u () ->
        Ugraph.add_edge g v u 1.0;
        push u;
        push v)
      chosen
  done;
  g

let random_regular rng ~n ~degree =
  if degree < 1 || degree >= n then invalid_arg "Generators.random_regular: degree";
  if n * degree mod 2 <> 0 then
    invalid_arg "Generators.random_regular: n * degree must be even";
  let rec attempt tries =
    if tries > 200 then
      invalid_arg "Generators.random_regular: failed to build a simple pairing"
    else begin
      let stubs = Array.make (n * degree) 0 in
      for v = 0 to n - 1 do
        for i = 0 to degree - 1 do
          stubs.((v * degree) + i) <- v
        done
      done;
      Prng.shuffle rng stubs;
      let g = Ugraph.create n in
      let ok = ref true in
      let i = ref 0 in
      while !ok && !i + 1 < Array.length stubs do
        let u = stubs.(!i) and v = stubs.(!i + 1) in
        if u = v || Ugraph.mem_edge g u v then ok := false
        else Ugraph.add_edge g u v 1.0;
        i := !i + 2
      done;
      if !ok then g else attempt (tries + 1)
    end
  in
  attempt 0

let random_multigraph_weights rng g ~max_weight =
  if max_weight < 1 then invalid_arg "Generators.random_multigraph_weights";
  let h = Ugraph.create (Ugraph.n g) in
  Ugraph.iter_edges g (fun u v _ ->
      Ugraph.set_edge h u v (float_of_int (1 + Prng.int rng max_weight)));
  h
