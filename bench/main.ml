(* Benchmark harness: regenerates every table and figure of the paper
   (at laptop scale; see EXPERIMENTS.md for the scale-down map) plus the
   robust-training benchmark.  Timing of the certify, service and
   training workloads lives in bench/perf.

   Usage:
     dune exec bench/main.exe              # everything, moderate scale
     dune exec bench/main.exe -- fig4 | table1-small [--no-exact]
       | table1-large | case-study | fgsm-sweep | ablation-itne
       | ablation-refine | ablation-window | ablation-symbolic
       | train-bench *)

let fmt = Format.std_formatter

let header title = Format.fprintf fmt "@.=== %s ===@." title

(* E1: the illustrating example (Fig. 4). *)
let run_fig4 () =
  header "E1: illustrating example (paper Fig. 4)";
  Exp.Fig4.print fmt (Exp.Fig4.run ())

(* E2/E4/E5: Table I, small networks, with exact baselines. *)
let run_table1_small ~with_exact () =
  header "E2: Table I, Auto MPG networks (DNN-1..5)";
  Format.fprintf fmt "delta = 0.001, W = 2, refine = half (paper setting)@.";
  let trained = Exp.Models.table1_small () in
  let rows =
    List.mapi
      (fun i t ->
        (* the paper could not finish the exact methods beyond DNN-4;
           we likewise only run them on the smaller models *)
        let with_exact = with_exact && i < 4 in
        (* token budgets for the larger nets document the blow-up (the
           paper's "8h" / ">24h" rows) without consuming it *)
        let reluplex_nodes = if i < 2 then 12_000 else 2_000 in
        let milp_time = if i < 2 then 60.0 else 45.0 in
        Format.fprintf fmt "running %s (%d hidden neurons)...@."
          t.Exp.Models.id
          (Nn.Network.hidden_neuron_count t.Exp.Models.net);
        Format.print_flush ();
        Exp.Table1.run ~with_exact ~reluplex_nodes ~milp_time
          ~config:Exp.Table1.auto_mpg_config ~delta:0.001 t)
      trained
  in
  Exp.Table1.print fmt rows

(* E3: Table I, convolutional networks (scaled-down MNIST analogues). *)
let run_table1_large () =
  header "E3: Table I, conv networks (DNN-6..8, scaled)";
  Format.fprintf fmt "delta = 2/255, W = 3, refine = 30 (paper setting)@.";
  let trained = Exp.Models.table1_large () in
  let config =
    { Exp.Table1.digits_config with
      Cert.Certifier.refine = Cert.Certifier.Count 10;
      milp_options =
        { Milp.max_nodes = 400; time_limit = 1.0 } }
  in
  let rows =
    List.map
      (fun t ->
        Format.fprintf fmt "running %s (%d hidden neurons, acc %.2f)...@."
          t.Exp.Models.id
          (Nn.Network.hidden_neuron_count t.Exp.Models.net)
          t.Exp.Models.test_metric;
        Format.print_flush ();
        Exp.Table1.run ~with_exact:false ~pgd_samples:20 ~config
          ~delta:(2.0 /. 255.0) t)
      trained
  in
  Exp.Table1.print fmt rows

let camera_trained () =
  (* 12 x 24 camera images keep the conv certification tractable; the
     paper used 24 x 48 on a Xeon with hours of budget *)
  Exp.Models.camera_net ~id:"camera" ~h:12 ~w:24 ()

(* E6: case study certification + invariant set. *)
let run_case_study () =
  header "E6: ACC case study: certification + invariant set";
  let trained = camera_trained () in
  Format.fprintf fmt "camera net: %s (test mse %.5f)@."
    (Nn.Network.describe trained.Exp.Models.net)
    trained.Exp.Models.test_metric;
  Format.print_flush ();
  let config =
    { Exp.Case_study.default_config with
      Cert.Certifier.milp_options =
        { Milp.max_nodes = 400; time_limit = 1.0 } }
  in
  let c = Exp.Case_study.certify ~config trained in
  Exp.Case_study.print_certification fmt c

(* E7: FGSM robustness sweep in closed loop. *)
let run_fgsm_sweep () =
  header "E7: closed-loop FGSM sweep (paper: 2/255 safe, 10/255 ~17% unsafe)";
  let trained = camera_trained () in
  let dd_safe =
    Control.Invariant.max_safe_estimation_error Control.Acc.default_params
  in
  let points =
    Exp.Case_study.fgsm_sweep ~episodes:12 ~steps:50 ~h:12 ~w:24
      ~dd_bound:dd_safe
      ~deltas:[ 0.0; 2.0 /. 255.0; 5.0 /. 255.0; 10.0 /. 255.0;
                20.0 /. 255.0 ]
      Control.Acc.default_params trained
  in
  Format.fprintf fmt "monitored bound |dd| <= %.4f@." dd_safe;
  Exp.Case_study.print_sweep fmt points

(* E8..E10: ablations. *)
let run_ablation_itne () =
  header "E8: ITNE vs BTNE tightness (random nets, growing width)";
  Exp.Ablation.print_itne_vs_btne fmt (Exp.Ablation.itne_vs_btne ())

let run_ablation_refine () =
  header "E9: refinement budget vs tightness (DNN-3)";
  let t = Exp.Models.auto_mpg_net ~id:"dnn3" ~sizes:(8, 8) () in
  Exp.Ablation.print_sweep ~name:"r" fmt (Exp.Ablation.refine_sweep t)

let run_ablation_symbolic () =
  header "E11: interval vs symbolic propagation (extension)";
  Exp.Ablation.print_propagation fmt (Exp.Ablation.propagation_sweep ())

let run_ablation_window () =
  header "E10: window size vs tightness (DNN-3)";
  let t = Exp.Models.auto_mpg_net ~id:"dnn3" ~sizes:(8, 8) () in
  Exp.Ablation.print_sweep ~name:"W" fmt (Exp.Ablation.window_sweep t)

(* Certifier-in-the-loop robust training on the camera/ACC case study:
   fine-tune the cached camera net against the differentiable interval
   twin-distance surrogate, re-certifying through the batched service
   after every epoch (digest-addressed queries, one batch request per
   epoch).  Emits BENCH_train.json.

   Gates (exit nonzero on violation):
   - final certified eps <= initial certified eps;
   - a majority of the per-epoch eps steps are non-increasing (the
     trend is monotone, not one lucky endpoint);
   - accuracy matched within +/- 1% of the baseline net;
   - the unchanged-net re-check is answered entirely from the result
     cache (nonzero hits, every cell cached);
   - no epoch fell back to degraded per-query round-trips. *)
let run_train_bench () =
  header "train-bench: robust fine-tuning with per-epoch re-certification";
  let trained = camera_trained () in
  Format.fprintf fmt "camera net: %s (test mse %.5f)@."
    (Nn.Network.describe trained.Exp.Models.net)
    trained.Exp.Models.test_metric;
  Format.print_flush ();
  let train, test, loss =
    Exp.Train_robust.family_data
      (Exp.Train_robust.Camera { h = 12; w = 24 })
  in
  let delta = 2.0 /. 255.0 in
  let config =
    { Exp.Train_robust.default_config with
      Exp.Train_robust.loss;
      optimizer = Nn.Train.adam ~lr:2e-5 ();
      epochs = 4; batch_size = 16; lambda = 5e-3; delta;
      lo = 0.0; hi = 1.0; grid = []; window = 2 }
  in
  let net = trained.Exp.Models.net in
  let on_epoch r _ =
    Format.fprintf fmt "%s@." (Exp.Train_robust.epoch_line r)
  in
  let records, recheck =
    Exp.Train_robust.with_local_service ~workers:2 (fun client ->
        let records =
          Exp.Train_robust.run ~client ~on_epoch config net ~train ~test
        in
        let recheck =
          Exp.Train_robust.recertify client ~window:config.window
            ~lo:config.lo ~hi:config.hi ~deltas:[| delta |] ~target:delta
            net
        in
        (records, recheck))
  in
  let eps_of = Exp.Train_robust.certified_eps in
  let traj = List.map eps_of records in
  let first = List.hd records in
  let last = List.nth records (List.length records - 1) in
  let eps_init = eps_of first and eps_fin = eps_of last in
  let acc_init = first.Exp.Train_robust.accuracy
  and acc_fin = last.Exp.Train_robust.accuracy in
  let steps = List.length traj - 1 in
  let non_increasing =
    let rec count = function
      | a :: (b :: _ as rest) ->
          (if b <= a +. 1e-12 then 1 else 0) + count rest
      | _ -> 0
    in
    count traj
  in
  let degraded =
    List.exists
      (fun (r : Exp.Train_robust.epoch_record) ->
        match r.Exp.Train_robust.recert with
        | Some rc -> rc.Exp.Train_robust.rc_degraded
        | None -> false)
      records
  in
  let recheck_full =
    recheck.Exp.Train_robust.rc_cache_hits > 0
    && recheck.Exp.Train_robust.rc_cache_hits
       = recheck.Exp.Train_robust.rc_cells
  in
  let gate_failures = ref [] in
  if not (eps_fin <= eps_init) then
    gate_failures :=
      Printf.sprintf "final eps %.6f > initial eps %.6f" eps_fin eps_init
      :: !gate_failures;
  if 2 * non_increasing < steps then
    gate_failures :=
      Printf.sprintf "only %d/%d eps steps non-increasing" non_increasing
        steps
      :: !gate_failures;
  if Float.abs (acc_fin -. acc_init) > 0.01 +. 1e-9 then
    gate_failures :=
      Printf.sprintf "accuracy moved %.4f -> %.4f (> 1%%)" acc_init acc_fin
      :: !gate_failures;
  if not recheck_full then
    gate_failures :=
      Printf.sprintf "unchanged-net recheck hit the cache on %d/%d cells"
        recheck.Exp.Train_robust.rc_cache_hits
        recheck.Exp.Train_robust.rc_cells
      :: !gate_failures;
  if degraded then
    gate_failures :=
      "an epoch re-certification degraded to per-query round-trips"
      :: !gate_failures;
  Format.fprintf fmt
    "eps %.6f -> %.6f (%d/%d steps non-increasing); acc %.3f -> %.3f; \
     recheck cache hits %d/%d@."
    eps_init eps_fin non_increasing steps acc_init acc_fin
    recheck.Exp.Train_robust.rc_cache_hits
    recheck.Exp.Train_robust.rc_cells;
  let oc = open_out "BENCH_train.json" in
  output_string oc
    (Serve.Json.to_string
       (Serve.Json.Obj
          [ ("id", Serve.Json.Str trained.Exp.Models.id);
            ("delta", Serve.Json.Num delta);
            ("lambda", Serve.Json.Num config.Exp.Train_robust.lambda);
            ("epochs",
             Serve.Json.List
               (List.map Exp.Train_robust.epoch_json records));
            ("train-bench",
             Serve.Json.Obj
               [ ("eps_initial", Serve.Json.Num eps_init);
                 ("eps_final", Serve.Json.Num eps_fin);
                 ("eps_trajectory",
                  Serve.Json.List
                    (List.map (fun e -> Serve.Json.Num e) traj));
                 ("steps_non_increasing",
                  Serve.Json.Num (float_of_int non_increasing));
                 ("steps", Serve.Json.Num (float_of_int steps));
                 ("accuracy_initial", Serve.Json.Num acc_init);
                 ("accuracy_final", Serve.Json.Num acc_fin);
                 ("accuracy_tolerance", Serve.Json.Num 0.01);
                 ("recheck_cache_hits",
                  Serve.Json.Num
                    (float_of_int recheck.Exp.Train_robust.rc_cache_hits));
                 ("recheck_cells",
                  Serve.Json.Num
                    (float_of_int recheck.Exp.Train_robust.rc_cells));
                 ("batched_service", Serve.Json.Bool (not degraded));
                 ("pass", Serve.Json.Bool (!gate_failures = [])) ]) ]));
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "wrote BENCH_train.json@.";
  if !gate_failures <> [] then begin
    List.iter
      (fun f -> Format.fprintf fmt "train-bench GATE FAILURE: %s@." f)
      !gate_failures;
    exit 1
  end

let run_all () =
  (* cheap, high-signal stages first so partial runs stay useful *)
  run_fig4 ();
  run_ablation_refine ();
  run_ablation_window ();
  run_ablation_symbolic ();
  run_ablation_itne ();
  run_case_study ();
  run_train_bench ();
  run_fgsm_sweep ();
  run_table1_small ~with_exact:true ();
  run_table1_large ()

let () =
  Exp.Models.cache_dir := "artifacts";
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  let positional =
    List.filter
      (fun a -> not (String.length a > 1 && a.[0] = '-'))
      (List.tl args)
  in
  match positional with
  | [] -> run_all ()
  | [ "fig4" ] -> run_fig4 ()
  | [ "table1-small" ] ->
      run_table1_small ~with_exact:(not (has "--no-exact")) ()
  | [ "table1-large" ] -> run_table1_large ()
  | [ "case-study" ] -> run_case_study ()
  | [ "fgsm-sweep" ] -> run_fgsm_sweep ()
  | [ "ablation-itne" ] -> run_ablation_itne ()
  | [ "ablation-refine" ] -> run_ablation_refine ()
  | [ "ablation-window" ] -> run_ablation_window ()
  | [ "ablation-symbolic" ] -> run_ablation_symbolic ()
  | [ "train-bench" ] -> run_train_bench ()
  | other ->
      Format.eprintf "unknown bench target: %s@." (String.concat " " other);
      exit 2
