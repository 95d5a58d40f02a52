(* The paper's Section III-B case study, end to end:

   1. train a camera-based distance estimator (synthetic renderer
      replaces Webots),
   2. certify its global robustness: |dd2| <= eps for any image and any
      pixel perturbation up to 2/255,
   3. bound the total estimation error dd = dd1 (model inaccuracy)
      + dd2 and verify closed-loop safety with an invariant set,
   4. stress the loop with FGSM at growing budgets and watch safety
      degrade, as in the paper's Webots deployment.

   Run with: dune exec examples/acc_safety.exe *)

let () =
  Exp.Models.cache_dir := "artifacts";
  print_endline "=== 1. perception network ===";
  let trained = Exp.Models.camera_net ~id:"camera" ~h:12 ~w:24 () in
  Printf.printf "%s\n  test MSE %.5f\n\n"
    (Nn.Network.describe trained.Exp.Models.net)
    trained.Exp.Models.test_metric;

  print_endline "=== 2./3. certification + invariant set ===";
  let config =
    { Exp.Case_study.default_config with
      Cert.Certifier.milp_options =
        { Milp.max_nodes = 2_000; time_limit = 5.0 } }
  in
  let c = Exp.Case_study.certify ~config trained in
  Exp.Case_study.print_certification Format.std_formatter c;
  print_newline ();

  print_endline "=== 4. FGSM stress sweep (closed loop) ===";
  let points =
    Exp.Case_study.fgsm_sweep ~episodes:15 ~steps:60 ~h:12 ~w:24
      ~dd_bound:c.Exp.Case_study.dd_safe
      ~deltas:[ 0.0; 2.0 /. 255.0; 5.0 /. 255.0; 10.0 /. 255.0 ]
      Control.Acc.default_params trained
  in
  Exp.Case_study.print_sweep Format.std_formatter points;
  print_newline ();
  print_endline
    "The certified bound covers every image the camera can produce, so\n\
     the safety verdict holds for the entire deployment - unlike the\n\
     simulation sweep, which can only sample."
