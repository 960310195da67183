type 'a outcome = {
  value : 'a option;
  attempts : int;
  backoff_units : int;
}

(* The one bounded loop: [wait a] is charged after failed attempt [a]
   whenever another attempt follows it. *)
let bounded ~name ~budget ~wait f =
  if budget < 1 then invalid_arg (name ^ ": budget must be >= 1");
  let rec go attempt backoff =
    match f ~attempt with
    | Some _ as v -> { value = v; attempts = attempt + 1; backoff_units = backoff }
    | None when attempt + 1 >= budget ->
        { value = None; attempts = attempt + 1; backoff_units = backoff }
    | None -> go (attempt + 1) (backoff + wait attempt)
  in
  go 0 0

let with_budget ~budget f =
  bounded ~name:"Retry.with_budget" ~budget ~wait:(fun a -> 1 lsl a) f

(* min cap (base * 2^a) without overflow: once the doubling clears the cap
   the clamp is exact, so stop multiplying there. *)
let clamped_exponential ~base ~cap attempt =
  let rec go v a = if v >= cap || a = 0 then min v cap else go (2 * v) (a - 1) in
  go base attempt

let jittered_wait ~rng ~base ~cap ~attempt =
  if base < 1 then invalid_arg "Retry.jittered_wait: base must be >= 1";
  if cap < 1 then invalid_arg "Retry.jittered_wait: cap must be >= 1";
  if attempt < 0 then invalid_arg "Retry.jittered_wait: attempt must be >= 0";
  let hi = clamped_exponential ~base ~cap attempt in
  1 + Prng.int (Prng.split rng attempt) hi

let with_jittered_backoff ~budget ~base ~cap ~rng f =
  let name = "Retry.with_jittered_backoff" in
  if base < 1 then invalid_arg (name ^ ": base must be >= 1");
  if cap < 1 then invalid_arg (name ^ ": cap must be >= 1");
  bounded ~name ~budget f ~wait:(fun attempt ->
      jittered_wait ~rng ~base ~cap ~attempt)

let majority ~k f =
  if k < 1 then invalid_arg "Retry.majority: k must be >= 1";
  (* First-seen order; k is small (typically 1 or 3), so an assoc list is
     plenty and keeps ties deterministic. *)
  let tally = ref [] in
  for i = 0 to k - 1 do
    match f i with
    | None -> ()
    | Some v -> (
        match List.find_opt (fun (v', _) -> v' = v) !tally with
        | Some _ ->
            tally :=
              List.map (fun (v', c) -> if v' = v then (v', c + 1) else (v', c)) !tally
        | None -> tally := !tally @ [ (v, 1) ])
  done;
  List.fold_left
    (fun best (v, c) ->
      match best with Some (_, bc) when bc >= c -> best | _ -> Some (v, c))
    None !tally
