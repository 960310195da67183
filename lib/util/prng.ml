(* SplitMix64. State is a single 64-bit counter advanced by a per-stream odd
   "gamma"; output is a bijective finalizer of the state. Splitting derives a
   new gamma from the parent stream, which keeps child streams independent. *)

type t = { mutable state : int64; gamma : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Branch-free SWAR popcount: bit counts of 2-, 4- and 8-bit fields, then
   one multiply sums the eight byte counts into the top byte. *)
let popcount64 x =
  let open Int64 in
  let m2 = 0x3333333333333333L in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x = add (logand x m2) (logand (shift_right_logical x 2) m2) in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

(* Gamma values must be odd; mix_gamma also guards against gammas with too
   few bit transitions (as in the reference implementation). It runs once
   per [split] and [fork] — once per edge in some samplers — so the
   transition count is a constant-time popcount. *)
let mix_gamma z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  let z = Int64.logor z 1L in
  let transitions = Int64.logxor z (Int64.shift_right_logical z 1) in
  if popcount64 transitions < 24 then Int64.logxor z 0xAAAAAAAAAAAAAAAAL else z

let create seed = { state = mix64 (Int64.of_int seed); gamma = golden_gamma }

let copy t = { state = t.state; gamma = t.gamma }

let next_state t =
  t.state <- Int64.add t.state t.gamma;
  t.state

let bits64 t = mix64 (next_state t)

let fork t =
  let s = bits64 t in
  let g = mix_gamma (bits64 t) in
  { state = s; gamma = g }

(* Indexed split: a pure function of the parent's current (state, gamma) and
   the task index, so a batch of tasks can derive their streams from one
   frozen parent in any order — the foundation of the Pool determinism
   guarantee (results independent of domain count and scheduling). Distinct
   indices give distinct pre-mix states (golden_gamma is odd, so
   (i+1)·golden_gamma is injective mod 2^64), and mix64 is a bijection. *)
let split t i =
  if i < 0 then invalid_arg "Prng.split: index must be nonnegative";
  let z = Int64.add t.state (Int64.mul golden_gamma (Int64.of_int (i + 1))) in
  let s = mix64 (Int64.logxor z t.gamma) in
  let g = mix_gamma (mix64 z) in
  { state = s; gamma = g }

(* Diagnostic identity of the stream's current position: a pure hash of
   (state, gamma) that does not advance the stream. Two generators report
   the same fingerprint iff they would produce the same future outputs, so
   a supervisor can name the exact stream a crashed task was running on. *)
let fingerprint t = mix64 (Int64.logxor (mix64 t.state) t.gamma)

let bool t = Int64.logand (bits64 t) 1L = 1L

let sign t = if bool t then 1 else -1

(* Uniform int in [0, n) by rejection on the top 62 bits (OCaml ints are 63
   bits; we keep everything nonnegative). *)
let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask = Int64.shift_right_logical Int64.minus_one 2 in
  let rec go () =
    let r = Int64.to_int (Int64.logand (bits64 t) mask) in
    let v = r mod n in
    (* reject to avoid modulo bias *)
    if r - v > (Int64.to_int (Int64.logand mask Int64.max_int)) - n + 1 then go () else v
  in
  go ()

let float t x =
  let bits53 = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  x *. (float_of_int bits53 /. 9007199254740992.0 (* 2^53 *))

let bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p

(* Explicit coin flips rather than inversion or rejection: exact for every
   (n, p), O(n) draws, and the draw count depends only on n — so a stream
   that resamples an integer edge weight consumes a deterministic number of
   variates regardless of p, which keeps samplers bit-stable when only the
   probability schedule changes. The weights this serves are small
   multiplicities, so O(n) is fine. *)
let binomial t ~n ~p =
  if n < 0 then invalid_arg "Prng.binomial: n must be nonnegative";
  if p <= 0.0 then 0
  else if p >= 1.0 then n
  else begin
    let c = ref 0 in
    for _ = 1 to n do
      if float t 1.0 < p then incr c
    done;
    !c
  end

let gaussian t =
  let rec nonzero () =
    let u = float t 1.0 in
    if u = 0.0 then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let sample_without_replacement t ~k ~n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  (* Partial Fisher–Yates on a lazily materialized identity map: O(k) space. *)
  let swapped = Hashtbl.create (2 * k) in
  let get i = Option.value (Hashtbl.find_opt swapped i) ~default:i in
  Array.init k (fun i ->
      let j = i + int t (n - i) in
      let vi = get i and vj = get j in
      Hashtbl.replace swapped j vi;
      Hashtbl.replace swapped i vj;
      vj)
