(* Quickstart: build a small ReLU network, certify its global
   robustness, and cross-check the bound against the exact answer and a
   PGD attack.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A 2-16-8-1 regression network with random weights. *)
  let rng = Random.State.make [| 2024 |] in
  let net =
    Nn.Network.make
      [ Nn.Layer.dense_random ~relu:true ~rng ~in_dim:2 ~out_dim:16 ();
        Nn.Layer.dense_random ~relu:true ~rng ~in_dim:16 ~out_dim:8 ();
        Nn.Layer.dense_random ~rng ~in_dim:8 ~out_dim:1 () ]
  in
  Printf.printf "network: %s\n\n" (Nn.Network.describe net);

  (* Question: over the whole input domain [-1,1]^2, how much can the
     output change when the input moves by at most delta = 0.05 in
     L-inf?  [certify_box] answers with a sound upper bound. *)
  let delta = 0.05 in
  let config =
    { Cert.Certifier.default_config with
      Cert.Certifier.window = 2;
      refine = Cert.Certifier.Fraction 0.5 }
  in
  let report =
    Cert.Certifier.certify_box ~config net ~lo:(-1.0) ~hi:1.0 ~delta
  in
  Printf.printf
    "certified:  |F(x') - F(x)| <= %.5f  for all ||x'-x||_inf <= %.2f\n"
    report.Cert.Certifier.eps.(0) delta;
  (* solve counts live in the metrics registry; this is the process's
     first certify, so the registry holds exactly its counts *)
  let count name =
    int_of_float (Option.value ~default:0.0 (Obs.Metrics.find name))
  in
  Printf.printf "            (%.3fs, %d LPs, %d MILPs)\n\n"
    report.Cert.Certifier.runtime (count "engine.lp_queries")
    (count "engine.milp_queries");

  (* Small enough to compare against the exact twin-network MILP. *)
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let exact = Cert.Exact.global_btne net ~input ~delta in
  Printf.printf "exact:      eps = %.5f  (%.3fs, %d nodes)\n"
    exact.Cert.Exact.eps.(0) exact.Cert.Exact.runtime exact.Cert.Exact.nodes;

  (* ... and against what an attacker actually finds. *)
  let xs =
    Array.init 20 (fun _ ->
        Array.init 2 (fun _ -> Random.State.float rng 2.0 -. 1.0))
  in
  let under = Attack.Global_under.sweep ~seed:1 ~domain:input net ~xs ~delta in
  Printf.printf "PGD found:  eps >= %.5f\n\n"
    under.Attack.Global_under.eps_under.(0);

  let ratio = report.Cert.Certifier.eps.(0) /. exact.Cert.Exact.eps.(0) in
  Printf.printf
    "The certified bound over-approximates the exact one by %.0f%%\n\
     while avoiding the exponential ReLU case split.\n"
    ((ratio -. 1.0) *. 100.0)
