(* Whether a BFS from vertex 0 along out-arcs reaches every vertex. *)
let reaches_all g =
  let n = Digraph.n g in
  let seen = Array.make n false and reached = ref 1 in
  let queue = Queue.create () in
  seen.(0) <- true;
  Queue.add 0 queue;
  while not (Queue.is_empty queue) do
    Digraph.iter_out g (Queue.pop queue) (fun v _ ->
        if not seen.(v) then begin
          seen.(v) <- true;
          incr reached;
          Queue.add v queue
        end)
  done;
  !reached = n

let connected_components g =
  let n = Ugraph.n g in
  let comp = Array.make n (-1) in
  let next_id = ref 0 in
  for s = 0 to n - 1 do
    if comp.(s) < 0 then begin
      let id = !next_id in
      incr next_id;
      let queue = Queue.create () in
      comp.(s) <- id;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Ugraph.iter_neighbors g u (fun v _ ->
            if comp.(v) < 0 then begin
              comp.(v) <- id;
              Queue.add v queue
            end)
      done
    end
  done;
  comp

let component_count g =
  let comp = connected_components g in
  Array.fold_left (fun acc (c : int) -> if c > acc then c else acc) (-1) comp + 1

let is_connected g = Ugraph.n g <= 1 || component_count g = 1

let is_strongly_connected g =
  Digraph.n g <= 1 || (reaches_all g && reaches_all (Digraph.reverse g))
