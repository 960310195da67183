module Prng = Dcs_util.Prng

type t = {
  size : int;
  rounds : int;
  copies : int;
  (* samplers.(r).(c).(u): vertex u's sampler, round r, copy c. Each
     (round, copy) pair is one family so component sketches can merge. *)
  samplers : L0_sampler.t array array array;
}

let edge_index ~n u v =
  if u = v || u < 0 || v < 0 || u >= n || v >= n then invalid_arg "Agm_sketch: edge";
  let a = if u < v then u else v and b = if u < v then v else u in
  (a * n) + b

let rounds_for n =
  2 + int_of_float (Float.ceil (Dcs_util.Stats.log2 (float_of_int (if n > 2 then n else 2))))

let create ?(copies = 3) rng ~n =
  if n < 1 then invalid_arg "Agm_sketch.create: n";
  if copies < 1 then invalid_arg "Agm_sketch.create: copies";
  let rounds = rounds_for n in
  let universe = n * n in
  {
    size = n;
    rounds;
    copies;
    samplers =
      Array.init rounds (fun _ ->
          Array.init copies (fun _ ->
              L0_sampler.create_family rng ~universe ~count:n));
  }

let update t u v delta =
  let idx = edge_index ~n:t.size u v in
  (* +1 on the smaller endpoint's vector, -1 on the larger's: summing the
     two cancels, which is exactly what makes internal edges vanish. *)
  let lo = if u < v then u else v and hi = if u < v then v else u in
  for r = 0 to t.rounds - 1 do
    for c = 0 to t.copies - 1 do
      L0_sampler.update t.samplers.(r).(c).(lo) idx delta;
      L0_sampler.update t.samplers.(r).(c).(hi) idx (-delta)
    done
  done

let add_edge t u v = update t u v 1
let remove_edge t u v = update t u v (-1)

let decode_edge t idx =
  let u = idx / t.size and v = idx mod t.size in
  (u, v)

(* Union-find for the Boruvka merge. *)
let rec find parent x =
  if parent.(x) = x then x
  else begin
    parent.(x) <- find parent parent.(x);
    parent.(x)
  end

let spanning_forest t =
  let n = t.size in
  let parent = Array.init n (fun i -> i) in
  let forest = ref [] in
  let classes = ref n in
  let r = ref 0 in
  let progress = ref true in
  while !classes > 1 && !r < t.rounds && !progress do
    progress := false;
    (* Merge this round's sketches per current component, one copy at a
       time, stopping at the first copy that decodes. *)
    let members = Hashtbl.create n in
    for v = 0 to n - 1 do
      let root = find parent v in
      let l = Option.value (Hashtbl.find_opt members root) ~default:[] in
      Hashtbl.replace members root (v :: l)
    done;
    let found = ref [] in
    Hashtbl.iter
      (fun root vs ->
        let rec try_copy c =
          if c >= t.copies then ()
          else begin
            let acc = L0_sampler.copy t.samplers.(!r).(c).(root) in
            List.iter
              (fun v ->
                if v <> root then
                  L0_sampler.merge_into ~dst:acc t.samplers.(!r).(c).(v))
              vs;
            match L0_sampler.query acc with
            | Some (idx, _) -> found := decode_edge t idx :: !found
            | None -> try_copy (c + 1)
          end
        in
        try_copy 0)
      members;
    List.iter
      (fun (u, v) ->
        let ru = find parent u and rv = find parent v in
        if ru <> rv then begin
          parent.(ru) <- rv;
          decr classes;
          forest := (u, v) :: !forest;
          progress := true
        end)
      !found;
    incr r
  done;
  !forest

let components_after_forest t forest =
  let parent = Array.init t.size (fun i -> i) in
  List.iter
    (fun (u, v) ->
      let ru = find parent u and rv = find parent v in
      if ru <> rv then parent.(ru) <- rv)
    forest;
  (* relabel densely *)
  let labels = Hashtbl.create 16 in
  Array.init t.size (fun v ->
      let root = find parent v in
      match Hashtbl.find_opt labels root with
      | Some l -> l
      | None ->
          let l = Hashtbl.length labels in
          Hashtbl.replace labels root l;
          l)

let connected t = List.length (spanning_forest t) = t.size - 1

(* Every sampler of a sketch ranges over the same n² edge slots. *)
let bits_per_copy ~n = rounds_for n * n * L0_sampler.bits_for ~universe:(n * n)
let size_bits t = t.copies * bits_per_copy ~n:t.size
