(* Per-domain sharded metrics with a deterministic merge.

   Every cell is an [int Atomic.t]; a bump lands in the shard indexed by the
   bumping domain's id, so concurrent increments from a Pool fan-out never
   contend on one cache line and never lose updates. A snapshot sums the
   shards per cell and sorts metrics by name, so the merged view is a pure
   function of the multiset of logical events — independent of scheduling
   and of DCS_DOMAINS. Counts only, no wall clock: snapshots belong in
   determinism gates. *)

let shard_count = 16 (* power of two: domain ids are masked in *)

type kind = Counter | Histogram

let kind_name = function Counter -> "counter" | Histogram -> "histogram"

(* Histogram layout: [buckets] exponential buckets followed by one sum cell.
   Bucket 0 holds values <= 0; bucket i (i >= 1) holds [2^(i-1), 2^i), with
   the last bucket absorbing the overflow. *)
type t = {
  id : int;
  name : string;
  kind : kind;
  buckets : int; (* 0 unless kind = Histogram *)
  width : int; (* cells per shard *)
  cells : int Atomic.t array array; (* shard -> cell *)
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 64
let by_id : (int, t) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()
let next_id = ref 0

type counter = t
type histogram = t

let default_buckets = 24

let make ~name ~kind ~buckets =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some m ->
      if m.kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %S already registered as a %s" name
             (kind_name m.kind));
      if kind = Histogram && m.buckets <> buckets then
        invalid_arg
          (Printf.sprintf "Metrics: histogram %S already has %d buckets" name
             m.buckets);
      m
  | None ->
      let width = match kind with Histogram -> buckets + 1 | Counter -> 1 in
      let m =
        {
          id = !next_id;
          name;
          kind;
          buckets;
          width;
          cells =
            Array.init shard_count (fun _ ->
                Array.init width (fun _ -> Atomic.make 0));
        }
      in
      incr next_id;
      Hashtbl.replace registry name m;
      Hashtbl.replace by_id m.id m;
      m

let counter name = make ~name ~kind:Counter ~buckets:0

let histogram ?(buckets = default_buckets) name =
  if buckets < 2 then invalid_arg "Metrics.histogram: need >= 2 buckets";
  make ~name ~kind:Histogram ~buckets

let shard_of_domain () = (Domain.self () :> int) land (shard_count - 1)

(* --- attempt transactions ---

   A supervised task attempt (Pool.run_supervised) may crash or overrun its
   deadline and be re-executed; if its increments landed directly, a
   crashed-and-retried task would count twice. [in_attempt] buffers the
   calling domain's increments in a domain-local journal and applies them
   only when the attempt returns — a discarded attempt leaves no trace, so
   a retried task counts exactly once in the merged snapshot. Increments
   made by domains the attempt itself spawns are not buffered. *)

type journal = (int, int array) Hashtbl.t

let txn_key : journal option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let bump m cell delta =
  match !(Domain.DLS.get txn_key) with
  | Some j ->
      let deltas =
        match Hashtbl.find_opt j m.id with
        | Some d -> d
        | None ->
            let d = Array.make m.width 0 in
            Hashtbl.replace j m.id d;
            d
      in
      deltas.(cell) <- deltas.(cell) + delta
  | None ->
      ignore (Atomic.fetch_and_add m.cells.(shard_of_domain ()).(cell) delta)

let commit (j : journal) =
  let shard = shard_of_domain () in
  Hashtbl.iter
    (fun id deltas ->
      let m = Hashtbl.find by_id id in
      Array.iteri
        (fun cell d ->
          if d <> 0 then ignore (Atomic.fetch_and_add m.cells.(shard).(cell) d))
        deltas)
    j

let in_attempt f =
  let slot = Domain.DLS.get txn_key in
  let saved = !slot in
  let j : journal = Hashtbl.create 16 in
  slot := Some j;
  match f () with
  | v ->
      slot := saved;
      (* Nested attempts fold into their parent so an outer discard still
         rolls the whole subtree back. *)
      (match saved with
      | None -> commit j
      | Some outer ->
          Hashtbl.iter
            (fun id deltas ->
              match Hashtbl.find_opt outer id with
              | Some d -> Array.iteri (fun c x -> d.(c) <- d.(c) + x) deltas
              | None -> Hashtbl.replace outer id (Array.copy deltas))
            j);
      v
  | exception e ->
      slot := saved;
      raise e

(* --- bumps --- *)

let inc ?(by = 1) m =
  if by < 0 then invalid_arg "Metrics.inc: counters are monotone";
  if by > 0 then bump m 0 by

let bucket_of m v =
  if v <= 0 then 0
  else begin
    let rec floor_log2 acc v = if v <= 1 then acc else floor_log2 (acc + 1) (v lsr 1) in
    min (m.buckets - 1) (1 + floor_log2 0 v)
  end

let observe m v =
  bump m (bucket_of m v) 1;
  bump m m.buckets v

(* --- reading --- *)

let cell_total m cell =
  Array.fold_left (fun acc shard -> acc + Atomic.get shard.(cell)) 0 m.cells

let counter_value m = cell_total m 0

type histogram_value = { count : int; sum : int; bucket_counts : int array }

let histogram_value m =
  let bucket_counts = Array.init m.buckets (fun b -> cell_total m b) in
  {
    count = Array.fold_left ( + ) 0 bucket_counts;
    sum = cell_total m m.buckets;
    bucket_counts;
  }

(* Left edge of bucket [b] (inclusive); bucket 0 is the zero bucket. *)
let bucket_lo b = if b <= 0 then 0 else 1 lsl (b - 1)

let bucket_label ~buckets b =
  if b = 0 then "0"
  else if b = buckets - 1 then Printf.sprintf "%d+" (bucket_lo b)
  else Printf.sprintf "%d-%d" (bucket_lo b) ((1 lsl b) - 1)

type value = Counter_v of int | Histogram_v of histogram_value

type snapshot = (string * value) list

let all_metrics () =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) @@ fun () ->
  Hashtbl.fold (fun _ m acc -> m :: acc) registry []

let snapshot () : snapshot =
  all_metrics ()
  |> List.map (fun m ->
         let v =
           match m.kind with
           | Counter -> Counter_v (counter_value m)
           | Histogram -> Histogram_v (histogram_value m)
         in
         (m.name, v))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
