(* Certifying a convolutional classifier (the Table I DNN-6 analogue):
   train a small conv net on procedural digit images, certify the
   global robustness of its logits under pixel perturbations, and
   compare with a PGD under-approximation.

   For a classifier, the certified bound has a concrete reading: if the
   logit margin between the predicted class and every other class
   exceeds 2*eps on all inputs of interest, no delta-bounded
   perturbation can ever flip the prediction.

   Run with: dune exec examples/digits_cert.exe *)

let () =
  Exp.Models.cache_dir := "artifacts";
  print_endline "training conv digit classifier (cached after first run)...";
  let trained = Exp.Models.digits_net ~id:"example-digits" ~conv_layers:1
      ~image:10 () in
  let net = trained.Exp.Models.net in
  Printf.printf "%s\n  test accuracy %.2f, %d hidden neurons\n\n"
    (Nn.Network.describe net) trained.Exp.Models.test_metric
    (Nn.Network.hidden_neuron_count net);

  let delta = 2.0 /. 255.0 in
  Printf.printf "certifying at delta = 2/255 over the pixel box [0,1]^%d\n\n"
    (Nn.Network.input_dim net);
  let config =
    { Cert.Certifier.default_config with
      Cert.Certifier.window = 3;
      refine = Cert.Certifier.Count 10;
      milp_options =
        { Milp.max_nodes = 1_000; time_limit = 2.0 } }
  in
  let report = Cert.Certifier.certify_box ~config net ~lo:0.0 ~hi:1.0 ~delta in
  print_endline "certified per-logit output variation bounds:";
  Array.iteri
    (fun j e -> Printf.printf "  logit %d: eps <= %.4f\n" j e)
    report.Cert.Certifier.eps;
  (* solve counts live in the metrics registry; this is the process's
     first certify, so the registry holds exactly its counts *)
  let count name =
    int_of_float (Option.value ~default:0.0 (Obs.Metrics.find name))
  in
  Printf.printf "  (%.1fs, %d LPs, %d MILPs)\n\n"
    report.Cert.Certifier.runtime (count "engine.lp_queries")
    (count "engine.milp_queries");

  (* PGD says how much of that bound is real *)
  let under =
    Attack.Global_under.sweep ~seed:5 ~max_samples:15
      ~domain:(Cert.Bounds.box_domain net ~lo:0.0 ~hi:1.0) net
      ~xs:trained.Exp.Models.dataset.Data.Dataset.xs ~delta
  in
  print_endline "PGD-found variation (lower bounds):";
  Array.iteri
    (fun j e -> Printf.printf "  logit %d: eps >= %.4f\n" j e)
    under.Attack.Global_under.eps_under;
  print_newline ();

  (* margin-based prediction-flip analysis on the test set *)
  let eps_max = Array.fold_left Float.max 0.0 report.Cert.Certifier.eps in
  let stable = ref 0 and total = ref 0 in
  Array.iter
    (fun x ->
      incr total;
      let logits = Nn.Network.forward net x in
      let top = Linalg.Vec.argmax logits in
      let margin = ref infinity in
      Array.iteri
        (fun k v ->
          if k <> top && logits.(top) -. v < !margin then
            margin := logits.(top) -. v)
        logits;
      if !margin > 2.0 *. eps_max then incr stable)
    trained.Exp.Models.dataset.Data.Dataset.xs;
  Printf.printf
    "%d/%d test images have logit margin > 2*eps: their predictions are\n\
     provably stable under ANY delta-bounded perturbation.\n"
    !stable !total
