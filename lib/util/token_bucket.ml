(* Micro-token accounting: the level is stored premultiplied by [rate_den],
   so a refill of (now - last) ticks adds exactly (now - last) * rate_num
   micro-tokens with no rounding, and a take subtracts rate_den. *)

type t = {
  cap_micro : int;
  rate_num : int;
  rate_den : int;
  mutable level : int; (* micro-tokens, in [0, cap_micro] *)
  mutable last : int;  (* tick the level is current at *)
}

let create ~capacity ~rate_num ~rate_den =
  if capacity < 1 then invalid_arg "Token_bucket.create: capacity must be >= 1";
  if rate_num < 0 then invalid_arg "Token_bucket.create: rate_num must be >= 0";
  if rate_den < 1 then invalid_arg "Token_bucket.create: rate_den must be >= 1";
  let cap_micro = capacity * rate_den in
  { cap_micro; rate_num; rate_den; level = cap_micro; last = 0 }

let advance t ~now =
  if now < t.last then
    invalid_arg "Token_bucket: the virtual clock must not move backwards";
  if now > t.last then begin
    t.level <- min t.cap_micro (t.level + ((now - t.last) * t.rate_num));
    t.last <- now
  end

let try_take t ~now =
  advance t ~now;
  if t.level >= t.rate_den then begin
    t.level <- t.level - t.rate_den;
    true
  end
  else false

let tokens t ~now =
  advance t ~now;
  t.level / t.rate_den

let capacity t = t.cap_micro / t.rate_den
