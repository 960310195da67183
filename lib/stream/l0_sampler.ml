module Prng = Dcs_util.Prng

(* Mersenne prime modulus: products of two residues fit in OCaml's native
   63-bit integers. *)
let p = 2147483647 (* 2^31 - 1 *)

let mulmod a b = a * b mod p
let addmod a b = (a + b) mod p

let powmod base e =
  let rec go acc base e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mulmod acc base) (mulmod base base) (e lsr 1)
    else go acc (mulmod base base) (e lsr 1)
  in
  go 1 (base mod p) e

type hashes = {
  universe : int;
  levels : int;
  a : int array;  (* per-level hash multipliers *)
  b : int array;  (* per-level hash offsets *)
  q : int;        (* fingerprint base *)
}

type t = {
  h : hashes;
  count : int array;        (* per level: Σ c_i over surviving i *)
  index_sum : int array;    (* per level: Σ c_i · i *)
  fingerprint : int array;  (* per level: Σ c_i · q^i mod p *)
}

let make_hashes rng ~universe =
  if universe <= 0 then invalid_arg "L0_sampler: universe must be positive";
  let levels = 2 + int_of_float (Dcs_util.Stats.log2 (float_of_int universe)) in
  {
    universe;
    levels;
    a = Array.init levels (fun _ -> 1 + Prng.int rng (p - 1));
    b = Array.init levels (fun _ -> Prng.int rng p);
    q = 2 + Prng.int rng (p - 3);
  }

let of_hashes h =
  {
    h;
    count = Array.make h.levels 0;
    index_sum = Array.make h.levels 0;
    fingerprint = Array.make h.levels 0;
  }

let create_family rng ~universe ~count =
  if count < 1 then invalid_arg "L0_sampler.create_family: count";
  let h = make_hashes rng ~universe in
  Array.init count (fun _ -> of_hashes h)

let create rng ~universe = of_hashes (make_hashes rng ~universe)

(* Level j keeps index i with probability 2^-j. *)
let kept h j i = j = 0 || ((h.a.(j) * i) + h.b.(j)) mod p land ((1 lsl j) - 1) = 0

let update s i delta =
  if i < 0 || i >= s.h.universe then invalid_arg "L0_sampler.update: index";
  if delta <> 0 then begin
    let fp_term =
      let d = ((delta mod p) + p) mod p in
      mulmod d (powmod s.h.q i)
    in
    for j = 0 to s.h.levels - 1 do
      if kept s.h j i then begin
        s.count.(j) <- s.count.(j) + delta;
        s.index_sum.(j) <- s.index_sum.(j) + (delta * i);
        s.fingerprint.(j) <- addmod s.fingerprint.(j) fp_term
      end
    done
  end

let same_family a b = a.h == b.h

let merge_into ~dst src =
  if not (same_family dst src) then
    invalid_arg "L0_sampler.merge_into: sketches from different families";
  for j = 0 to dst.h.levels - 1 do
    dst.count.(j) <- dst.count.(j) + src.count.(j);
    dst.index_sum.(j) <- dst.index_sum.(j) + src.index_sum.(j);
    dst.fingerprint.(j) <- addmod dst.fingerprint.(j) src.fingerprint.(j)
  done

let copy s =
  {
    h = s.h;
    count = Array.copy s.count;
    index_sum = Array.copy s.index_sum;
    fingerprint = Array.copy s.fingerprint;
  }

(* A level is a verified singleton when (count, index_sum, fingerprint) are
   consistent with the vector restricted to that level being c·e_i. *)
let singleton_at s j =
  let c = s.count.(j) in
  if c = 0 then None
  else if s.index_sum.(j) mod c <> 0 then None
  else begin
    let i = s.index_sum.(j) / c in
    if i < 0 || i >= s.h.universe then None
    else if not (kept s.h j i) then None
    else begin
      let expected = mulmod (((c mod p) + p) mod p) (powmod s.h.q i) in
      if expected = s.fingerprint.(j) then Some (i, c) else None
    end
  end

let query s =
  (* Prefer the sparsest (highest) level that verifies. *)
  let rec go j =
    if j < 0 then None else match singleton_at s j with None -> go (j - 1) | r -> r
  in
  go (s.h.levels - 1)

let is_zero s =
  Array.for_all (fun c -> c = 0) s.count
  && Array.for_all (fun f -> f = 0) s.fingerprint

let size_bits s = 3 * 64 * s.h.levels
