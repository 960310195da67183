module Ugraph = Dcs_graph.Ugraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut
module Prng = Dcs_util.Prng

(* Working representation: a dense weighted quotient graph. [groups.(i)] is
   the set of original vertices absorbed by super-vertex i; the active
   super-vertices are 0..r-1 and contraction swaps the merged vertex with
   the last active one, so every level is O(r²). *)
type quotient = {
  mutable r : int;
  w : float array array;
  groups : int list array;
  total : float array;  (* incident weight per super-vertex *)
}

(* Dense init off the frozen arc arrays: each undirected edge is stored as
   two opposite arcs, so one pass over the out-rows fills both matrix
   triangles and the incident weights. *)
let quotient_of_csr csr =
  let n = Csr.n csr in
  let w = Array.make_matrix n n 0.0 in
  let total = Array.make n 0.0 in
  for u = 0 to n - 1 do
    Csr.iter_out csr u (fun v x ->
        w.(u).(v) <- w.(u).(v) +. x;
        total.(u) <- total.(u) +. x)
  done;
  { r = n; w; groups = Array.init n (fun v -> [ v ]); total }

let copy q =
  {
    r = q.r;
    w = Array.map Array.copy q.w;
    groups = Array.copy q.groups;
    total = Array.copy q.total;
  }

(* Merge super-vertex j into i, then move the last active vertex into j's
   slot. *)
let merge q i j =
  assert (i <> j && i < q.r && j < q.r);
  q.total.(i) <- q.total.(i) +. q.total.(j) -. (2.0 *. q.w.(i).(j));
  for x = 0 to q.r - 1 do
    if x <> i && x <> j then begin
      q.w.(i).(x) <- q.w.(i).(x) +. q.w.(j).(x);
      q.w.(x).(i) <- q.w.(i).(x)
    end
  done;
  q.w.(i).(j) <- 0.0;
  q.w.(j).(i) <- 0.0;
  q.groups.(i) <- q.groups.(j) @ q.groups.(i);
  let last = q.r - 1 in
  if j <> last then begin
    for x = 0 to q.r - 1 do
      q.w.(j).(x) <- q.w.(last).(x);
      q.w.(x).(j) <- q.w.(j).(x)
    done;
    q.w.(j).(j) <- 0.0;
    (* fix i's row against the moved vertex *)
    q.groups.(j) <- q.groups.(last);
    q.total.(j) <- q.total.(last)
  end;
  q.r <- q.r - 1

(* Pick a random edge with probability proportional to weight. *)
let random_edge rng q =
  let sum = ref 0.0 in
  for i = 0 to q.r - 1 do
    for j = i + 1 to q.r - 1 do
      sum := !sum +. q.w.(i).(j)
    done
  done;
  if !sum <= 0.0 then None
  else begin
    let target = Prng.float rng !sum in
    let acc = ref 0.0 in
    let found = ref None in
    (try
       for i = 0 to q.r - 1 do
         for j = i + 1 to q.r - 1 do
           acc := !acc +. q.w.(i).(j);
           if !acc >= target && q.w.(i).(j) > 0.0 then begin
             found := Some (i, j);
             raise Exit
           end
         done
       done
     with Exit -> ());
    !found
  end

let contract_to rng q target =
  while q.r > target do
    match random_edge rng q with
    | Some (i, j) -> merge q i j
    | None -> invalid_arg "Karger_stein: graph disconnected"
  done

(* Exact minimum cut of a small quotient by enumeration. *)
let brute_quotient q =
  let best = ref infinity in
  let best_mask = ref 0 in
  for mask = 0 to (1 lsl (q.r - 1)) - 1 do
    (* vertex r-1 pinned outside S; skip empty S *)
    if mask <> 0 then begin
      let value = ref 0.0 in
      for i = 0 to q.r - 1 do
        for j = i + 1 to q.r - 1 do
          let side x = x < q.r - 1 && (mask lsr x) land 1 = 1 in
          if side i <> side j then value := !value +. q.w.(i).(j)
        done
      done;
      if !value < !best then begin
        best := !value;
        best_mask := mask
      end
    end
  done;
  let side = Array.make q.r false in
  for x = 0 to q.r - 2 do
    if (!best_mask lsr x) land 1 = 1 then side.(x) <- true
  done;
  (!best, side)

let rec recurse rng q =
  if q.r <= 6 then brute_quotient q
  else begin
    let target = 1 + int_of_float (Float.ceil (float_of_int q.r /. sqrt 2.0)) in
    let attempt () =
      let q' = copy q in
      contract_to rng q' target;
      let v, side' = recurse rng q' in
      (* Lift the side back: original ids on the true side. *)
      let members = Hashtbl.create 16 in
      Array.iteri
        (fun i s -> if s then List.iter (fun o -> Hashtbl.replace members o ()) q'.groups.(i))
        side';
      (v, members)
    in
    let v1, m1 = attempt () in
    let v2, m2 = attempt () in
    let v, members = if v1 <= v2 then (v1, m1) else (v2, m2) in
    (* Re-express as a side over q's super-vertices. *)
    let side = Array.make q.r false in
    for i = 0 to q.r - 1 do
      match q.groups.(i) with
      | o :: _ -> side.(i) <- Hashtbl.mem members o
      | [] -> ()
    done;
    (v, side)
  end

(* One run off a prebuilt base quotient. [recurse] never mutates its
   argument (each attempt works on a [copy]), so the base doubles as a
   per-domain arena: built once per worker domain and shared by every run
   that domain executes, saving the O(n²) dense rebuild per run. *)
let run_once_quotient rng ~n csr base =
  if n < 2 then invalid_arg "Karger_stein.run_once: need >= 2 vertices";
  let _, side = recurse rng base in
  let cut =
    Cut.of_mem ~n (fun v ->
        (* find v's super-vertex *)
        let rec find i = if i >= base.r then false
          else if List.mem v base.groups.(i) then side.(i)
          else find (i + 1)
        in
        find 0)
  in
  let cut = if Cut.is_proper cut then cut else Cut.singleton ~n 0 in
  (Csr.cut_value csr cut, cut)

let run_once rng g =
  let csr = Csr.of_ugraph g in
  run_once_quotient rng ~n:(Ugraph.n g) csr (quotient_of_csr csr)

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
     each domain recursing off one shared base quotient; run [t]'s
     stream is a pure function of (master, t) and the min is taken in run
     order, so the answer is bit-identical for every domain count. *)
  let master = Prng.fork rng in
  let csr = Csr.of_ugraph g in
  let results =
    Dcs_util.Pool.run_batched ?domains
      ~arena:(fun () -> quotient_of_csr csr)
      ~n:runs
      (fun base t -> run_once_quotient (Prng.split master t) ~n csr base)
  in
  let best = ref results.(0) in
  for t = 1 to runs - 1 do
    let v, _ = results.(t) in
    if v < fst !best then best := results.(t)
  done;
  !best
