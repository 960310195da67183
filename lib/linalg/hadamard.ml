type t = { k : int; q : int }

let create k =
  if k < 0 || k > 20 then invalid_arg "Hadamard.create: k out of range";
  { k; q = 1 lsl k }

let order t = t.q

let popcount_parity x =
  (* Parity of the number of set bits, folded down to one bit. *)
  let x = x lxor (x lsr 32) in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  let x = x lxor (x lsr 1) in
  x land 1

let entry t i j =
  if i < 0 || i >= t.q || j < 0 || j >= t.q then invalid_arg "Hadamard.entry";
  if popcount_parity (i land j) = 0 then 1 else -1

let row t i = Array.init t.q (fun j -> entry t i j)

let dot_rows t i j =
  let acc = ref 0 in
  for c = 0 to t.q - 1 do
    acc := !acc + (entry t i c * entry t j c)
  done;
  !acc

let fwht_in_place v =
  let n = Array.length v in
  if n land (n - 1) <> 0 || n = 0 then invalid_arg "Hadamard.fwht_in_place: length";
  let h = ref 1 in
  while !h < n do
    let step = !h * 2 in
    let i = ref 0 in
    while !i < n do
      for j = !i to !i + !h - 1 do
        let a = v.(j) and b = v.(j + !h) in
        v.(j) <- a +. b;
        v.(j + !h) <- a -. b
      done;
      i := !i + step
    done;
    h := step
  done

let transform2 t z =
  let q = t.q in
  if Array.length z <> q then invalid_arg "Hadamard.transform2: shape";
  let out = Array.map Array.copy z in
  (* H·Z : transform each column; Z·H : transform each row. The Sylvester
     matrix is symmetric so both sides use the same FWHT. *)
  Array.iter
    (fun r ->
      if Array.length r <> q then invalid_arg "Hadamard.transform2: shape";
      fwht_in_place r)
    out;
  let col = Array.make q 0.0 in
  for j = 0 to q - 1 do
    for i = 0 to q - 1 do
      col.(i) <- out.(i).(j)
    done;
    fwht_in_place col;
    for i = 0 to q - 1 do
      out.(i).(j) <- col.(i)
    done
  done;
  out
