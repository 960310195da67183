(* Nagamochi–Ibaraki forest decomposition over the canonical edge order.

   Every per-edge array is indexed by an edge's position in the canonical
   ascending (u, v) order of [Ugraph.edges] (u < v): the greedy
   forests, the indices, [fold] and the certificate all walk positions in
   that order, so every result is a pure function of graph content, never
   of hashtable history — required for streamed-and-compacted graphs to
   sample identically to batch ones. [index] binary-searches the order. *)

module Ugraph = Dcs_graph.Ugraph

type t = {
  n : int;
  rounds : int;
  eu : int array;   (* edge endpoints, u < v, ascending (u, v) *)
  ev : int array;
  idx : int array;  (* NI index per edge *)
  cons : int array; (* forests that used the edge (<= idx) *)
}

(* Union-find used per forest round. *)
let rec find parent x =
  if parent.(x) = x then x
  else begin
    parent.(x) <- find parent parent.(x);
    parent.(x)
  end

let compute ?(max_rounds = 512) g =
  if max_rounds < 1 then invalid_arg "Strength.compute: max_rounds";
  let n = Ugraph.n g in
  let edges = Ugraph.edges g in
  let m = Array.length edges in
  let eu = Array.map (fun (u, _, _) -> u) edges in
  let ev = Array.map (fun (_, v, _) -> v) edges in
  (* Remaining multiplicity per edge; 0 once exhausted. *)
  let mult =
    Array.map (fun (_, _, w) -> max 1 (int_of_float (Float.round w))) edges
  in
  let idx = Array.make m 0 and cons = Array.make m 0 in
  (* One union-find and one used-edge buffer serve every round: a
     spanning forest has at most n - 1 edges. *)
  let parent = Array.make n 0 in
  let used = Array.make (max 0 (n - 1)) 0 in
  let live = ref m and round = ref 0 in
  while !live > 0 && !round < max_rounds do
    incr round;
    for x = 0 to n - 1 do
      parent.(x) <- x
    done;
    let nused = ref 0 in
    for e = 0 to m - 1 do
      if mult.(e) > 0 then begin
        let ru = find parent eu.(e) and rv = find parent ev.(e) in
        if ru <> rv then begin
          parent.(ru) <- rv;
          used.(!nused) <- e;
          incr nused
        end
      end
    done;
    for k = 0 to !nused - 1 do
      let e = used.(k) in
      cons.(e) <- cons.(e) + 1;
      mult.(e) <- mult.(e) - 1;
      if mult.(e) = 0 then begin
        idx.(e) <- !round;
        decr live
      end
    done
  done;
  (* Edges still alive are at least max_rounds-connected (or were never
     reached because the forest construction stalled on multiplicity). *)
  for e = 0 to m - 1 do
    if mult.(e) > 0 then idx.(e) <- !round
  done;
  { n; rounds = !round; eu; ev; idx; cons }

let index t u v =
  let a = min u v and b = max u v in
  let rec search lo hi =
    if lo > hi then
      invalid_arg (Printf.sprintf "Strength.index: (%d, %d) is not an edge" u v);
    let mid = (lo + hi) / 2 in
    let c =
      match Int.compare t.eu.(mid) a with 0 -> Int.compare t.ev.(mid) b | c -> c
    in
    if c = 0 then t.idx.(mid)
    else if c < 0 then search (mid + 1) hi
    else search lo (mid - 1)
  in
  search 0 (Array.length t.eu - 1)

let rounds_used t = t.rounds

let fold f t init =
  let acc = ref init in
  for e = 0 to Array.length t.eu - 1 do
    acc := f t.eu.(e) t.ev.(e) t.idx.(e) !acc
  done;
  !acc

(* The Nagamochi–Ibaraki sparse certificate. The forest rounds of [compute]
   are maximal spanning forests of the not-yet-exhausted edges, so the
   union of the first k of them — each edge taken with multiplicity equal
   to the number of those forests that used it — preserves every cut of
   value <= k and hence every local connectivity up to k. The certificate
   weight is min(consumed multiplicity, original weight): consumption is in
   rounded-multiplicity units, and clamping to the true weight keeps the
   certificate a weighted subgraph (its connectivities never exceed the
   source's) even for fractional weights. At most n-1 edges join per round,
   so the certificate has O(rounds_used * n) edges however dense [g] is. *)
let certificate t g =
  if Ugraph.n g <> t.n then invalid_arg "Strength.certificate: vertex count";
  let h = Ugraph.create t.n in
  for e = 0 to Array.length t.eu - 1 do
    if t.cons.(e) > 0 then begin
      let u = t.eu.(e) and v = t.ev.(e) in
      let w = Float.min (float_of_int t.cons.(e)) (Ugraph.weight g u v) in
      if w > 0.0 then Ugraph.add_edge h u v w
    end
  done;
  h

let min_index t = fold (fun _ _ i acc -> min i acc) t max_int
let max_index t = fold (fun _ _ i acc -> max i acc) t 0
