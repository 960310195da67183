type t = { side : bool array; card : int }

let of_array a =
  let card = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a in
  { side = Array.copy a; card }

let of_mem ~n f =
  if n < 0 then invalid_arg "Cut.of_mem";
  of_array (Array.init n f)

let of_indices ~n idx =
  let a = Array.make n false in
  List.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Cut.of_indices: vertex out of range";
      a.(i) <- true)
    idx;
  of_array a

let n t = Array.length t.side
let mem t v = t.side.(v)
let unsafe_side t = t.side
let cardinal t = t.card

let complement t = { side = Array.map not t.side; card = n t - t.card }

let to_list t =
  let out = ref [] in
  for i = n t - 1 downto 0 do
    if t.side.(i) then out := i :: !out
  done;
  !out

let is_proper t = t.card > 0 && t.card < n t

let value g t =
  if Digraph.n g <> n t then invalid_arg "Cut.value: size mismatch";
  Digraph.cut_weight g (mem t)

let value_rev g t =
  if Digraph.n g <> n t then invalid_arg "Cut.value_rev: size mismatch";
  Digraph.cut_weight_into g (mem t)

let equal a b = n a = n b && a.side = b.side

let random rng ~n:nv =
  if nv < 2 then invalid_arg "Cut.random: need n >= 2";
  let rec go () =
    let c = of_mem ~n:nv (fun _ -> Dcs_util.Prng.bool rng) in
    if is_proper c then c else go ()
  in
  go ()

let random_of_size rng ~n:nv ~k =
  if k <= 0 || k >= nv then invalid_arg "Cut.random_of_size";
  let picks = Dcs_util.Prng.sample_without_replacement rng ~k ~n:nv in
  of_indices ~n:nv (Array.to_list picks)
