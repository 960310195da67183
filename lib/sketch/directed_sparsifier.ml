module Digraph = Dcs_graph.Digraph
module Ugraph = Dcs_graph.Ugraph
module Prng = Dcs_util.Prng

let check_params ~eps ~beta =
  if eps <= 0.0 || eps >= 1.0 then invalid_arg "Directed_sparsifier: eps in (0,1)";
  if beta < 1.0 then invalid_arg "Directed_sparsifier: beta >= 1"

let probability ~oversample g =
  let proj = Ugraph.of_digraph g in
  let strengths = Strength.compute proj in
  fun u v _w ->
    let k = float_of_int (Strength.index strengths u v) in
    oversample /. k

let forall_sparsify ?(c = 4.0) rng ~eps ~beta g =
  check_params ~eps ~beta;
  let n = float_of_int (max 2 (Digraph.n g)) in
  let oversample = c *. beta *. log n /. (eps *. eps) in
  Importance.sample_digraph rng ~prob:(probability ~oversample g) g

let foreach_sparsify ?(c = 4.0) rng ~eps ~beta g =
  check_params ~eps ~beta;
  let oversample = c *. beta /. (eps *. eps) in
  Importance.sample_digraph rng ~prob:(probability ~oversample g) g

(* The CCPS21 sampling-rate schedule: ρ(ε, β, n) = c·γ·ln n/ε² with
   γ = (1+β)(3 + log₂ n) — the oversampling that makes p = min(1, ρ/λ)
   preserve all directed cuts of a β-balanced graph within (1 ± ε) w.h.p.
   The default c is scaled down from the proof constant the same way the
   strength samplers' c is, so bench-scale graphs actually shrink. *)
let rho ?(c = 0.25) ~eps ~beta ~n () =
  check_params ~eps ~beta;
  let n = float_of_int (max 2 n) in
  let gamma = (1.0 +. beta) *. (3.0 +. (log n /. log 2.0)) in
  c *. gamma *. log n /. (eps *. eps)

(* Connectivity-based importance sampling (CCPS21's compress):
   p_e = min(1, ρ/λ̂(e)) with λ̂ the capped lower-bound estimates of
   {!Connectivity} (cap = ρ: capping at the sampling rate only ever
   *raises* p, so any prefiltered estimate stays sound), and binomial
   weight resampling through {!Importance.binomial_keep}. Edge e draws
   from its own [Prng.split master i] stream over the canonical sorted
   edge order, so the sample is a pure function of (seed, graph content)
   and edges could be resampled independently in any order. *)
let connectivity_sparsify ?c ?rho:rho_opt ?cap ?domains ?flow_budget
    ?connectivity rng ~eps ~beta g =
  check_params ~eps ~beta;
  let rho =
    match rho_opt with
    | Some r ->
        if r <= 0.0 then invalid_arg "Directed_sparsifier: rho must be positive";
        r
    | None -> rho ?c ~eps ~beta ~n:(Digraph.n g) ()
  in
  let conn =
    match connectivity with
    | Some conn -> conn
    | None ->
        (* The cap must sit well above ρ: estimates saturate at the cap,
           and p = ρ/λ̂, so cap = ρ would pin every p at 1 and sparsify
           nothing. The default allows keep probabilities down to 1/16. *)
        let cap = match cap with Some k -> k | None -> 16.0 *. rho in
        Connectivity.estimate_digraph ?domains ?flow_budget ~beta ~cap g
  in
  let master = Prng.fork rng in
  let h = Digraph.create (Digraph.n g) in
  Array.iteri
    (fun i (u, v, w) ->
      let lam = Connectivity.lambda_at conn i in
      let p = if lam <= 0.0 then 1.0 else rho /. lam in
      match Importance.binomial_keep (Prng.split master i) ~p ~w with
      | Some w' -> Digraph.add_edge h u v w'
      | None -> ())
    (Connectivity.edges conn);
  h

(* Exact expected kept-edge count of [connectivity_sparsify] at rate
   [rho] given the same estimates — the budget-matching knob: monotone in
   rho, so a bisection on it pins the sketch size to a target. *)
let expected_kept ~rho conn =
  let acc = ref 0.0 in
  Connectivity.iter conn (fun _ _ w lam ->
      let p = if lam <= 0.0 then 1.0 else rho /. lam in
      acc := !acc +. Importance.keep_probability ~p ~w);
  !acc

let to_sketch ~name h =
  Sketch.of_digraph ~name ~size_bits:(Sketch.digraph_encoding_bits h) h

let forall_sketch ?c rng ~eps ~beta g =
  to_sketch
    ~name:(Printf.sprintf "directed-forall(eps=%g,beta=%g)" eps beta)
    (forall_sparsify ?c rng ~eps ~beta g)

let foreach_sketch ?c rng ~eps ~beta g =
  to_sketch
    ~name:(Printf.sprintf "directed-foreach(eps=%g,beta=%g)" eps beta)
    (foreach_sparsify ?c rng ~eps ~beta g)
