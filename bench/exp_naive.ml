(* E11 — ablation from Section 1.2: the naive one-bit-per-edge encoding
   versus the Hadamard superposition, decoded through oracles of varying
   accuracy. The naive scheme needs accuracy ~ ε² (its Θ(1) signal hides
   under a Θ(1/ε²) cut); the superposition survives down to ~ ε/ln(1/ε) —
   the gap that forces the paper's encoding. *)

open Dcs

let run () =
  Common.section "E11  §1.2 ablation — naive encoding vs Hadamard superposition";
  let rng = Common.rng_for 11 in
  let t =
    Table.create
      ~title:"decode success vs oracle accuracy eps' (beta=1, both schemes)"
      ~columns:
        [ "1/eps"; "scheme"; "exact"; "eps'=eps^2"; "eps'=eps^2*4"; "eps'=eps/ln" ]
  in
  List.iter
    (fun inv_eps ->
      let n = 4 * inv_eps in
      let eps = 1.0 /. float_of_int inv_eps in
      let eps_sq = eps *. eps in
      let eps_star = eps /. log (float_of_int inv_eps) in
      let p = Foreach_lb.make_params ~beta:1 ~inv_eps n in
      (* naive rows *)
      let naive_run noise =
        let sketch_of r (inst : Naive_foreach.instance) =
          if noise = 0.0 then Exact_sketch.create inst.Naive_foreach.graph
          else
            Noisy_oracle.create ~mode:Noisy_oracle.Random r ~eps:noise
              inst.Naive_foreach.graph
        in
        (Naive_foreach.run_trials rng p ~sketch_of ~trials:3 ~bits_per_trial:80)
          .Naive_foreach.success_rate
      in
      Table.add_row t
        [
          Table.fint inv_eps;
          "naive (1 bit / edge)";
          Table.ffloat ~digits:2 (naive_run 0.0);
          Table.ffloat ~digits:2 (naive_run eps_sq);
          Table.ffloat ~digits:2 (naive_run (4.0 *. eps_sq));
          Table.ffloat ~digits:2 (naive_run eps_star);
        ];
      (* Hadamard rows *)
      let hadamard_run noise =
        let sketch_of r (inst : Foreach_lb.instance) =
          if noise = 0.0 then Exact_sketch.create inst.Foreach_lb.graph
          else
            Noisy_oracle.create ~mode:Noisy_oracle.Random r ~eps:noise
              inst.Foreach_lb.graph
        in
        (Foreach_lb.run_trials rng p ~sketch_of ~trials:3 ~bits_per_trial:80)
          .Foreach_lb.success_rate
      in
      Table.add_row t
        [
          Table.fint inv_eps;
          "hadamard (Thm 1.1)";
          Table.ffloat ~digits:2 (hadamard_run 0.0);
          Table.ffloat ~digits:2 (hadamard_run eps_sq);
          Table.ffloat ~digits:2 (hadamard_run (4.0 *. eps_sq));
          Table.ffloat ~digits:2 (hadamard_run eps_star);
        ];
      Table.add_rule t)
    [ 8; 16; 32 ];
  Table.print t;
  Common.note
    "at eps' = eps/ln(1/eps) — the accuracy regime of Theorem 1.1 — the naive";
  Common.note
    "scheme decodes near chance while the superposition still succeeds: the";
  Common.note "reason Section 3 spreads each bit across all 1/eps^2 edges."
