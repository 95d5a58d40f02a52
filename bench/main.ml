(* Benchmark harness: regenerates every table and figure of the paper
   (at laptop scale; see EXPERIMENTS.md for the scale-down map) plus
   bechamel microbenchmarks of the solver kernels.

   Usage:
     dune exec bench/main.exe              # everything, moderate scale
     dune exec bench/main.exe -- fig4 | table1-small [--no-exact]
       | table1-large | case-study | fgsm-sweep | ablation-itne
       | ablation-refine | ablation-window | micro | lp-bench
       | serve-bench | train-bench | obs-bench *)

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
        { Milp.default_options with Milp.max_nodes = 400;
          time_limit = 1.0 } }
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
        { Milp.default_options with Milp.max_nodes = 400;
          time_limit = 1.0 } }
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

(* Bechamel microbenchmarks of the kernels behind every experiment. *)
let run_micro () =
  header "microbenchmarks (bechamel)";
  let open Bechamel in
  let net = Exp.Fig4.example_network () in
  let domain = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let dnn2 =
    (Exp.Models.auto_mpg_net ~id:"dnn2" ~sizes:(8, 4) ()).Exp.Models.net
  in
  let dnn2_domain = Cert.Bounds.box_domain dnn2 ~lo:0.0 ~hi:1.0 in
  (* pre-compile one certification LP for the solver kernel benchmark *)
  let compiled_lp =
    let bounds =
      Cert.Bounds.create dnn2 ~input:dnn2_domain
        ~input_dist:(Cert.Bounds.uniform_delta dnn2 0.001)
    in
    Cert.Interval_prop.propagate dnn2 bounds;
    let view =
      Cert.Subnet.cone dnn2 ~last:(Nn.Network.n_layers dnn2 - 1)
        ~targets:[| 0 |] ~window:2
    in
    let enc = Cert.Encode.itne ~mode:Cert.Encode.Relaxed ~bounds view in
    Lp.Simplex.compile enc.Cert.Encode.model
  in
  let lp_lo, lp_hi = Lp.Simplex.default_bounds compiled_lp in
  let rng = Random.State.make [| 1 |] in
  let image = Data.Camera.render ~rng ~h:12 ~w:24 ~d:1.0 ~noise:0.02 in
  let camera_net = (camera_trained ()).Exp.Models.net in
  let camera_rng = Random.State.make [| 2 |] in
  let tests =
    [ Test.make ~name:"fig4-itne-lpr"
        (Staged.stage (fun () ->
             ignore (Cert.Variants.itne_lpr net ~input:domain ~delta:0.1)));
      Test.make ~name:"table1-lp-solve"
        (Staged.stage (fun () ->
             ignore
               (Lp.Simplex.solve_compiled compiled_lp ~lo:lp_lo ~hi:lp_hi)));
      Test.make ~name:"table1-interval-prop"
        (Staged.stage (fun () ->
             ignore
               (Cert.Interval_prop.certify dnn2 ~input:dnn2_domain
                  ~delta:0.001)));
      Test.make ~name:"table1-pgd"
        (Staged.stage (fun () ->
             ignore
               (Attack.Pgd.max_output_variation ~seed:3 dnn2
                  ~x:(Array.make 7 0.5) ~delta:0.001 ~j:0)));
      Test.make ~name:"case-camera-render"
        (Staged.stage (fun () ->
             ignore
               (Data.Camera.render ~rng:camera_rng ~h:12 ~w:24 ~d:1.2
                  ~noise:0.02)));
      Test.make ~name:"case-dnn-forward"
        (Staged.stage (fun () -> ignore (Nn.Network.forward camera_net image)))
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"grc" tests)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let entries = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      entries := (name, est) :: !entries)
    results;
  List.iter
    (fun (name, ns) ->
      Format.fprintf fmt "%-40s %14.1f ns/run (%.3f ms)@." name ns (ns /. 1e6))
    (List.sort compare !entries)

(* LP warm-start benchmark: the certifier's per-neuron min/max sweep
   solved cold (a fresh basis per query — the pre-session behaviour)
   vs through one persistent session, each sweep run against both the
   sparse LU basis (the default) and the dense-inverse reference
   representation, plus end-to-end certifier stats.  Emits
   machine-readable BENCH_lp.json next to the textual report.

   Gates (exit nonzero on violation):
   - sparse and dense objectives agree to 1e-9 on every query;
   - no silent dense fallbacks on any benchmarked net;
   - aggregate >= 5x dense-vs-sparse wall-time speedup on the
     dnn3/dnn4-scale sweeps. *)
let run_lp_bench () =
  header "lp-bench: warm-started simplex (session) vs cold solves";
  let c_ftrans = Obs.Metrics.counter "simplex.ftrans" in
  let c_btrans = Obs.Metrics.counter "simplex.btrans" in
  let c_lu_factors = Obs.Metrics.counter "simplex.lu_factors" in
  let c_etas = Obs.Metrics.counter "simplex.eta_updates" in
  let c_refactors = Obs.Metrics.counter "lp:refactor" in
  let c_dense_fb = Obs.Metrics.counter "simplex.dense_fallbacks" in
  let gate_failures = ref [] in
  let gate_cases = [ "dnn3"; "dnn4"; "dnn5" ] in
  let agg_dense = ref 0.0 and agg_sparse = ref 0.0 in
  let sweep_case name net ~lo ~hi ~delta =
    let input = Cert.Bounds.box_domain net ~lo ~hi in
    let bounds =
      Cert.Bounds.create net ~input
        ~input_dist:(Cert.Bounds.uniform_delta net delta)
    in
    Cert.Interval_prop.propagate net bounds;
    let n = Nn.Network.n_layers net in
    let out_dim = Nn.Network.output_dim net in
    let view =
      Cert.Subnet.cone net ~last:(n - 1)
        ~targets:(Array.init out_dim Fun.id) ~window:n
    in
    let enc = Cert.Encode.itne ~mode:Cert.Encode.Relaxed ~bounds view in
    (* the certifier's query pattern: min and max of every neuron's
       value and distance variable over one encoded matrix *)
    let queries =
      Hashtbl.fold
        (fun _ (nv : Cert.Encode.neuron_vars) acc ->
          (Lp.Model.Maximize, [ (nv.Cert.Encode.y, 1.0) ])
          :: (Lp.Model.Minimize, [ (nv.Cert.Encode.y, 1.0) ])
          :: (Lp.Model.Maximize, [ (nv.Cert.Encode.dy, 1.0) ])
          :: (Lp.Model.Minimize, [ (nv.Cert.Encode.dy, 1.0) ])
          :: acc)
        enc.Cert.Encode.vars []
    in
    let cp = Lp.Simplex.compile enc.Cert.Encode.model in
    let lo_b, hi_b = Lp.Simplex.default_bounds cp in
    (* one cold sweep + one warm session sweep under [kind] *)
    let run_rep kind =
      let saved = !Lp.Simplex.basis_kind in
      Lp.Simplex.basis_kind := kind;
      let t0 = Unix.gettimeofday () in
      let cold_pivots = ref 0 in
      let cold_objs =
        List.map
          (fun objective ->
            let sol =
              Lp.Simplex.solve_compiled ~objective cp ~lo:lo_b ~hi:hi_b
            in
            cold_pivots := !cold_pivots + sol.Lp.Simplex.pivots;
            (sol.Lp.Simplex.status, sol.Lp.Simplex.obj))
          queries
      in
      let cold_time = Unix.gettimeofday () -. t0 in
      let t0 = Unix.gettimeofday () in
      let session = Lp.Simplex.create_session cp in
      let warm_objs =
        List.map
          (fun objective ->
            let sol = Lp.Simplex.solve_session ~objective session in
            (sol.Lp.Simplex.status, sol.Lp.Simplex.obj))
          queries
      in
      let warm_time = Unix.gettimeofday () -. t0 in
      Lp.Simplex.basis_kind := saved;
      (cold_objs, cold_time, !cold_pivots, warm_objs, warm_time,
       Lp.Simplex.session_stats session)
    in
    let max_pair_diff a b =
      List.fold_left2
        (fun acc (s1, o1) (s2, o2) ->
          match (s1, s2) with
          | Lp.Simplex.Optimal, Lp.Simplex.Optimal ->
              Float.max acc (Float.abs (o1 -. o2))
          | _ -> if s1 = s2 then acc else infinity)
        0.0 a b
    in
    (* sparse run, with kernel and factorisation accounting *)
    let ftrans0 = Obs.Metrics.get c_ftrans
    and btrans0 = Obs.Metrics.get c_btrans
    and lu0 = Obs.Metrics.get c_lu_factors
    and etas0 = Obs.Metrics.get c_etas
    and refs0 = Obs.Metrics.get c_refactors
    and fb0 = Obs.Metrics.get c_dense_fb in
    Lp.Simplex.time_kernels := true;
    Lp.Simplex.reset_kernel_times ();
    let cold_objs, cold_time, cold_pivots, warm_objs, warm_time, st =
      run_rep Lp.Simplex.Sparse_lu
    in
    let ftran_s, btran_s = Lp.Simplex.kernel_times () in
    Lp.Simplex.time_kernels := false;
    let ftrans = Obs.Metrics.get c_ftrans - ftrans0
    and btrans = Obs.Metrics.get c_btrans - btrans0
    and lu_factors = Obs.Metrics.get c_lu_factors - lu0
    and eta_updates = Obs.Metrics.get c_etas - etas0
    and refactors = Obs.Metrics.get c_refactors - refs0
    and sweep_dense_fb = Obs.Metrics.get c_dense_fb - fb0 in
    (* dense-inverse reference run of the identical sweeps *)
    let d_cold_objs, d_cold_time, _, d_warm_objs, d_warm_time, _ =
      run_rep Lp.Simplex.Dense_inverse
    in
    (* the sweeps must agree query by query *)
    let max_diff = max_pair_diff cold_objs warm_objs in
    let dv_diff =
      Float.max
        (max_pair_diff d_cold_objs cold_objs)
        (max_pair_diff d_warm_objs warm_objs)
    in
    let dense_total = d_cold_time +. d_warm_time in
    let sparse_total = cold_time +. warm_time in
    if List.mem name gate_cases then begin
      agg_dense := !agg_dense +. dense_total;
      agg_sparse := !agg_sparse +. sparse_total
    end;
    if dv_diff > 1e-9 then
      gate_failures :=
        Printf.sprintf "%s: dense vs sparse objectives differ by %g" name
          dv_diff
        :: !gate_failures;
    if sweep_dense_fb <> 0 then
      gate_failures :=
        Printf.sprintf "%s: %d silent dense fallback(s) in the sparse sweep"
          name sweep_dense_fb
        :: !gate_failures;
    Format.fprintf fmt
      "%-8s %4d queries: cold %.4fs / %6d pivots; warm %.4fs / %6d pivots \
       (%d warm, %d dual, %d fallback); speedup %.2fx; max |diff| %.2g@."
      name (List.length queries) cold_time cold_pivots warm_time
      st.Lp.Simplex.total_pivots st.Lp.Simplex.warm_solves
      st.Lp.Simplex.dual_restarts st.Lp.Simplex.fallbacks
      (cold_time /. warm_time) max_diff;
    Format.fprintf fmt
    "         dense %.4fs vs sparse %.4fs: %.2fx dense-vs-sparse speedup; \
       %d etas, %d refactors, %d LU factors, %d dense fallbacks; \
       max |dense-sparse| %.2g@."
      dense_total sparse_total
      (dense_total /. sparse_total)
      eta_updates refactors lu_factors sweep_dense_fb dv_diff;
    Printf.sprintf
      "    { \"name\": %S, \"queries\": %d,\n\
      \      \"cold\": { \"time_s\": %.6f, \"solves\": %d, \"pivots\": %d },\n\
      \      \"warm\": { \"time_s\": %.6f, \"solves\": %d, \
       \"cold_solves\": %d,\n\
      \                 \"warm_solves\": %d, \"dual_restarts\": %d,\n\
      \                 \"fallbacks\": %d, \"pivots\": %d },\n\
      \      \"speedup\": %.3f, \"max_abs_obj_diff\": %.3g,\n\
      \      \"dense\": { \"cold_time_s\": %.6f, \"warm_time_s\": %.6f },\n\
      \      \"dense_vs_sparse\": { \"speedup\": %.3f, \
       \"max_abs_obj_diff\": %.3g },\n\
      \      \"kernels\": { \"ftrans\": %d, \"btrans\": %d,\n\
      \                    \"ftran_time_s\": %.6f, \"btran_time_s\": %.6f \
       },\n\
      \      \"basis\": { \"lu_factors\": %d, \"refactors\": %d,\n\
      \                  \"eta_updates\": %d, \"dense_fallbacks\": %d } }"
      name (List.length queries) cold_time (List.length queries)
      cold_pivots warm_time st.Lp.Simplex.solves st.Lp.Simplex.cold_solves
      st.Lp.Simplex.warm_solves st.Lp.Simplex.dual_restarts
      st.Lp.Simplex.fallbacks st.Lp.Simplex.total_pivots
      (cold_time /. warm_time) max_diff d_cold_time d_warm_time
      (dense_total /. sparse_total)
      dv_diff ftrans btrans ftran_s btran_s lu_factors refactors
      eta_updates sweep_dense_fb
  in
  let cert_case name net ~lo ~hi ~delta =
    let r = Cert.Certifier.certify_box net ~lo ~hi ~delta in
    Format.fprintf fmt
      "%-8s certify: %.4fs, %d queries (%d encoded, %d dedup), %d LP solves \
       (%d warm), %d pivots, %d MILP, eps0 %.6g@."
      name r.Cert.Certifier.runtime r.Cert.Certifier.bound_queries
      r.Cert.Certifier.encoded_models r.Cert.Certifier.dedup_hits
      r.Cert.Certifier.lp_solves r.Cert.Certifier.lp_warm_solves
      r.Cert.Certifier.lp_pivots r.Cert.Certifier.milp_solves
      r.Cert.Certifier.eps.(0);
    Printf.sprintf
      "    { \"name\": %S, \"delta\": %g, \"runtime_s\": %.6f,\n\
      \      \"bound_queries\": %d, \"encoded_models\": %d, \
       \"dedup_hits\": %d,\n\
      \      \"lp_solves\": %d, \"lp_warm_solves\": %d, \"lp_pivots\": %d,\n\
      \      \"milp_solves\": %d, \"eps\": [%s] }"
      name delta r.Cert.Certifier.runtime r.Cert.Certifier.bound_queries
      r.Cert.Certifier.encoded_models r.Cert.Certifier.dedup_hits
      r.Cert.Certifier.lp_solves r.Cert.Certifier.lp_warm_solves
      r.Cert.Certifier.lp_pivots r.Cert.Certifier.milp_solves
      (String.concat ", "
         (List.map (Printf.sprintf "%.9g")
            (Array.to_list r.Cert.Certifier.eps)))
  in
  let fig4 = Exp.Fig4.example_network () in
  let dnn2 =
    (Exp.Models.auto_mpg_net ~id:"dnn2" ~sizes:(8, 4) ()).Exp.Models.net
  in
  let dnn3 =
    (Exp.Models.auto_mpg_net ~id:"dnn3" ~sizes:(8, 8) ()).Exp.Models.net
  in
  let dnn4 =
    (Exp.Models.auto_mpg_net ~id:"dnn4" ~sizes:(16, 16) ()).Exp.Models.net
  in
  let dnn5 =
    (Exp.Models.auto_mpg_net ~id:"dnn5" ~sizes:(32, 32) ()).Exp.Models.net
  in
  (* explicit lets: list elements evaluate right-to-left, which would
     print the cases in reverse *)
  let sweeps =
    let s_fig4 = sweep_case "fig4" fig4 ~lo:(-1.0) ~hi:1.0 ~delta:0.1 in
    let s_dnn2 = sweep_case "dnn2" dnn2 ~lo:0.0 ~hi:1.0 ~delta:0.001 in
    let s_dnn3 = sweep_case "dnn3" dnn3 ~lo:0.0 ~hi:1.0 ~delta:0.001 in
    let s_dnn4 = sweep_case "dnn4" dnn4 ~lo:0.0 ~hi:1.0 ~delta:0.001 in
    let s_dnn5 = sweep_case "dnn5" dnn5 ~lo:0.0 ~hi:1.0 ~delta:0.001 in
    [ s_fig4; s_dnn2; s_dnn3; s_dnn4; s_dnn5 ]
  in
  let agg_speedup = !agg_dense /. !agg_sparse in
  Format.fprintf fmt
    "dense-vs-sparse aggregate (%s): dense %.4fs / sparse %.4fs = %.2fx \
     speedup@."
    (String.concat "+" gate_cases)
    !agg_dense !agg_sparse agg_speedup;
  if agg_speedup < 5.0 then
    gate_failures :=
      Printf.sprintf
        "aggregate dense-vs-sparse speedup %.2fx < 5x on %s" agg_speedup
        (String.concat "+" gate_cases)
      :: !gate_failures;
  let certs =
    [ cert_case "fig4" fig4 ~lo:(-1.0) ~hi:1.0 ~delta:0.1;
      cert_case "dnn2" dnn2 ~lo:0.0 ~hi:1.0 ~delta:0.001;
      cert_case "dnn3" dnn3 ~lo:0.0 ~hi:1.0 ~delta:0.001 ]
  in
  (* Backward-symbolic pre-analysis: the same certification with
     [symbolic = Sym_back], which answers structurally-no-op Dx
     queries without touching the simplex.  Gates:
     - certified eps bitwise identical to the plain run (the skips
       must be free, not a different relaxation);
     - a nonzero number of conclusive skips on each gated net;
     - >= 30% fewer LP solves on the gated nets. *)
  let sym_case ~exact_output_relation name net ~lo ~hi ~delta =
    let input = Cert.Bounds.box_domain net ~lo ~hi in
    let run symbolic =
      let config =
        { Cert.Certifier.default_config with symbolic; exact_output_relation }
      in
      Cert.Certifier.certify ~config net ~input ~delta
    in
    let off = run Cert.Certifier.Sym_off in
    let back = run Cert.Certifier.Sym_back in
    let eps_equal = off.Cert.Certifier.eps = back.Cert.Certifier.eps in
    let saving =
      if off.Cert.Certifier.lp_solves = 0 then 0.0
      else
        1.0
        -. (float_of_int back.Cert.Certifier.lp_solves
            /. float_of_int off.Cert.Certifier.lp_solves)
    in
    if not eps_equal then
      gate_failures :=
        Printf.sprintf "%s: symbolic=back changed the certified eps" name
        :: !gate_failures;
    Format.fprintf fmt
      "%-8s symbolic=back: %d -> %d LP solves (%.0f%% fewer), %d \
       conclusive, %d seeded, %d stable relus, eps %s@."
      name off.Cert.Certifier.lp_solves back.Cert.Certifier.lp_solves
      (100.0 *. saving)
      back.Cert.Certifier.symbolic_conclusive
      back.Cert.Certifier.symbolic_seeded
      back.Cert.Certifier.symbolic_stable_relus
      (if eps_equal then "unchanged" else "CHANGED");
    Printf.sprintf
      "    { \"name\": %S, \"exact_output_relation\": %b,\n\
      \      \"lp_solves_off\": %d, \"lp_solves_back\": %d, \
       \"lp_saving\": %.3f,\n\
      \      \"symbolic_conclusive\": %d, \"symbolic_seeded\": %d,\n\
      \      \"symbolic_stable_relus\": %d, \"eps_bitwise_equal\": %b }"
      name exact_output_relation off.Cert.Certifier.lp_solves
      back.Cert.Certifier.lp_solves saving
      back.Cert.Certifier.symbolic_conclusive
      back.Cert.Certifier.symbolic_seeded
      back.Cert.Certifier.symbolic_stable_relus eps_equal
  in
  let sym_gate ~exact_output_relation name net ~lo ~hi ~delta =
    let input = Cert.Bounds.box_domain net ~lo ~hi in
    let run symbolic =
      let config =
        { Cert.Certifier.default_config with symbolic; exact_output_relation }
      in
      Cert.Certifier.certify ~config net ~input ~delta
    in
    let off = run Cert.Certifier.Sym_off in
    let back = run Cert.Certifier.Sym_back in
    if back.Cert.Certifier.symbolic_conclusive = 0 then
      gate_failures :=
        Printf.sprintf "%s: no conclusive symbolic skips" name
        :: !gate_failures;
    if
      float_of_int back.Cert.Certifier.lp_solves
      > 0.7 *. float_of_int off.Cert.Certifier.lp_solves
    then
      gate_failures :=
        Printf.sprintf
          "%s: symbolic=back saved only %d of %d LP solves (< 30%%)" name
          (off.Cert.Certifier.lp_solves - back.Cert.Certifier.lp_solves)
          off.Cert.Certifier.lp_solves
        :: !gate_failures
  in
  let symbolics =
    (* gated cases run without the exact output relation: with it on,
       the planner refines the output row, which rightly disables the
       skip (the Dx LP is then not a structural no-op) *)
    let g3 =
      sym_case ~exact_output_relation:false "dnn3" dnn3 ~lo:0.0 ~hi:1.0
        ~delta:0.001
    in
    sym_gate ~exact_output_relation:false "dnn3" dnn3 ~lo:0.0 ~hi:1.0
      ~delta:0.001;
    let g4 =
      sym_case ~exact_output_relation:false "dnn4" dnn4 ~lo:0.0 ~hi:1.0
        ~delta:0.001
    in
    sym_gate ~exact_output_relation:false "dnn4" dnn4 ~lo:0.0 ~hi:1.0
      ~delta:0.001;
    (* default config: the skip declines, the run must stay bitwise
       identical (parity only; no saving expected) *)
    let gd =
      sym_case ~exact_output_relation:true "dnn3-default" dnn3 ~lo:0.0
        ~hi:1.0 ~delta:0.001
    in
    [ g3; g4; gd ]
  in
  (* Stability hints feeding the exact engines: a net with a ReLU that
     interval propagation cannot resolve but the backward substitution
     proves active.  Hints must pin splits without moving the exact
     optimum (presolve off, else the LP pass collapses the straddle
     before the hints can). *)
  let sym_hints =
    let gap_net =
      Nn.Network.make
        [ Nn.Layer.dense ~relu:true
            ~weight:(Linalg.Mat.of_arrays [| [| 1.0 |]; [| 1.0 |] |])
            ~bias:[| 0.0; -1.0 |] ();
          Nn.Layer.dense ~relu:true
            ~weight:(Linalg.Mat.of_arrays [| [| 1.0; -1.0 |] |])
            ~bias:[| 0.1 |] ();
          Nn.Layer.dense
            ~weight:(Linalg.Mat.of_arrays [| [| 1.0 |] |])
            ~bias:[| 0.0 |] () ]
    in
    let input = Cert.Bounds.box_domain gap_net ~lo:0.0 ~hi:2.0 in
    let delta = 0.05 in
    let analysis, _ =
      Cert.Symbolic_back.stable_phases gap_net ~input ~delta
    in
    let stable = analysis.Cert.Symbolic_back.stable in
    let m_plain = Cert.Exact.global_itne ~presolve:false gap_net ~input ~delta in
    let m_hint =
      Cert.Exact.global_itne ~presolve:false ~stable gap_net ~input ~delta
    in
    let r_plain =
      Cert.Reluplex_style.global ~presolve:false gap_net ~input ~delta
    in
    let r_hint =
      Cert.Reluplex_style.global ~presolve:false ~stable gap_net ~input
        ~delta
    in
    let max_diff a b =
      let d = ref 0.0 in
      Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
      !d
    in
    let m_diff = max_diff m_plain.Cert.Exact.eps m_hint.Cert.Exact.eps in
    let r_diff =
      max_diff r_plain.Cert.Reluplex_style.eps r_hint.Cert.Reluplex_style.eps
    in
    if m_hint.Cert.Exact.skipped_splits = 0 then
      gate_failures :=
        "gap-net: stability hints pinned no MILP binaries" :: !gate_failures;
    if r_hint.Cert.Reluplex_style.skipped_splits = 0 then
      gate_failures :=
        "gap-net: stability hints fixed no reluplex splits"
        :: !gate_failures;
    if m_diff > 1e-6 || r_diff > 1e-6 then
      gate_failures :=
        Printf.sprintf
          "gap-net: hinted exact eps drifted (milp %g, reluplex %g)" m_diff
          r_diff
        :: !gate_failures;
    Format.fprintf fmt
      "gap-net  stability hints: %d stable relus; MILP %d binaries pinned \
       (|diff| %.2g), reluplex %d splits fixed (|diff| %.2g)@."
      analysis.Cert.Symbolic_back.stable_relus
      m_hint.Cert.Exact.skipped_splits m_diff
      r_hint.Cert.Reluplex_style.skipped_splits r_diff;
    Printf.sprintf
      "{ \"stable_relus\": %d,\n\
      \    \"milp\": { \"skipped_splits\": %d, \"nodes_plain\": %d, \
       \"nodes_hinted\": %d, \"max_abs_eps_diff\": %.3g },\n\
      \    \"reluplex\": { \"skipped_splits\": %d, \"nodes_plain\": %d, \
       \"nodes_hinted\": %d, \"max_abs_eps_diff\": %.3g } }"
      analysis.Cert.Symbolic_back.stable_relus
      m_hint.Cert.Exact.skipped_splits m_plain.Cert.Exact.nodes
      m_hint.Cert.Exact.nodes m_diff r_hint.Cert.Reluplex_style.skipped_splits
      r_plain.Cert.Reluplex_style.nodes r_hint.Cert.Reluplex_style.nodes
      r_diff
  in
  (* Branch & bound strategies: the same certification under every
     branching rule.  Gates:
     - certified eps bitwise identical across all strategies on every
       case (the strategy-invariance contract);
     - dual-guided explores >= 20% fewer B&B nodes than
       most-fractional on the gated case (exact-BTNE dnn3 below — the
       per-query MILPs of the layer-wise certifier are too small to
       prune at all, so every strategy visits their complete trees;
       only the whole-network encoding has trees deep enough for the
       branching order to matter). *)
  let m_search_nodes = Obs.Metrics.counter "search.nodes" in
  let m_search_prunes = Obs.Metrics.counter "search.prunes" in
  let m_search_incumbents = Obs.Metrics.counter "search.incumbents" in
  let branch_case name net ~lo ~hi ~delta =
    let input = Cert.Bounds.box_domain net ~lo ~hi in
    let runs =
      List.map
        (fun s ->
          let config =
            { Cert.Certifier.default_config with Cert.Certifier.branch = s }
          in
          let n0 = Obs.Metrics.get m_search_nodes
          and p0 = Obs.Metrics.get m_search_prunes
          and i0 = Obs.Metrics.get m_search_incumbents in
          let r = Cert.Certifier.certify ~config net ~input ~delta in
          ( s, r,
            Obs.Metrics.get m_search_nodes - n0,
            Obs.Metrics.get m_search_prunes - p0,
            Obs.Metrics.get m_search_incumbents - i0 ))
        Search.Strategy.all
    in
    let eps_of (_, (r : Cert.Certifier.report), _, _, _) =
      r.Cert.Certifier.eps
    in
    let eps0 = eps_of (List.hd runs) in
    let eps_equal =
      List.for_all
        (fun run ->
          Array.for_all2
            (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
            eps0 (eps_of run))
        runs
    in
    if not eps_equal then
      gate_failures :=
        Printf.sprintf "%s: certified eps differs across branch strategies"
          name
        :: !gate_failures;
    List.iter
      (fun (s, (r : Cert.Certifier.report), n, p, i) ->
        Format.fprintf fmt
          "%-8s branch=%-15s %6d nodes, %5d prunes, %4d incumbents, %4d \
           MILP, eps0 %.9g%s@."
          name
          (Search.Strategy.to_string s)
          n p i r.Cert.Certifier.milp_solves r.Cert.Certifier.eps.(0)
          (if eps_equal then "" else "  EPS DRIFT"))
      runs;
    Printf.sprintf
      "    { \"name\": %S, \"delta\": %g, \"eps_bitwise_equal\": %b,\n\
      \      \"strategies\": [\n%s\n      ] }"
      name delta eps_equal
      (String.concat ",\n"
         (List.map
            (fun (s, (r : Cert.Certifier.report), n, p, i) ->
              Printf.sprintf
                "        { \"branch\": %S, \"nodes\": %d, \"prunes\": %d,\n\
                \          \"incumbents\": %d, \"milp_solves\": %d, \
                 \"eps\": [%s] }"
                (Search.Strategy.to_string s)
                n p i r.Cert.Certifier.milp_solves
                (String.concat ", "
                   (List.map (Printf.sprintf "%.9g")
                      (Array.to_list r.Cert.Certifier.eps))))
            runs))
  in
  let branches =
    let b3 = branch_case "dnn3" dnn3 ~lo:0.0 ~hi:1.0 ~delta:0.001 in
    let b4 = branch_case "dnn4" dnn4 ~lo:0.0 ~hi:1.0 ~delta:0.001 in
    [ b3; b4 ]
  in
  (* Whole-network exact MILP under every strategy: one deep tree per
     output, where an early guided incumbent prunes large subtrees.
     Gated: dual-guided must explore >= 20% fewer nodes than
     most-fractional at a bitwise-identical exact eps. *)
  let branch_exact =
    let input = Cert.Bounds.box_domain dnn3 ~lo:0.0 ~hi:0.35 in
    let runs =
      List.map
        (fun s ->
          (s, Cert.Exact.global_btne ~branch:s dnn3 ~input ~delta:0.001))
        Search.Strategy.all
    in
    let eps0 = (snd (List.hd runs)).Cert.Exact.eps in
    let eps_equal =
      List.for_all
        (fun (_, (r : Cert.Exact.result)) ->
          Array.for_all2
            (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
            eps0 r.Cert.Exact.eps)
        runs
    in
    if not eps_equal then
      gate_failures :=
        "exact-dnn3: eps differs across branch strategies" :: !gate_failures;
    let nodes_of want =
      List.find_map
        (fun (s, (r : Cert.Exact.result)) ->
          if s = want then Some r.Cert.Exact.nodes else None)
        runs
      |> Option.get
    in
    let n_mf = nodes_of Search.Strategy.Most_fractional in
    let n_dg = nodes_of Search.Strategy.Dual_guided in
    if float_of_int n_dg > 0.8 *. float_of_int n_mf then
      gate_failures :=
        Printf.sprintf
          "exact-dnn3: dual-guided explored %d nodes vs most-fractional %d \
           (< 20%% fewer)"
          n_dg n_mf
        :: !gate_failures;
    List.iter
      (fun (s, (r : Cert.Exact.result)) ->
        Format.fprintf fmt
          "exact-dnn3 branch=%-15s %6d nodes, eps0 %.9g, %.2fs%s@."
          (Search.Strategy.to_string s)
          r.Cert.Exact.nodes r.Cert.Exact.eps.(0) r.Cert.Exact.runtime
          (if eps_equal then "" else "  EPS DRIFT"))
      runs;
    Printf.sprintf
      "{ \"name\": \"exact-dnn3\", \"eps_bitwise_equal\": %b,\n\
      \    \"dual_guided_node_saving\": %.3f,\n\
      \    \"strategies\": [\n%s\n    ] }"
      eps_equal
      (1.0 -. (float_of_int n_dg /. float_of_int n_mf))
      (String.concat ",\n"
         (List.map
            (fun (s, (r : Cert.Exact.result)) ->
              Printf.sprintf
                "      { \"branch\": %S, \"nodes\": %d, \"eps\": [%s] }"
                (Search.Strategy.to_string s)
                r.Cert.Exact.nodes
                (String.concat ", "
                   (List.map (Printf.sprintf "%.9g")
                      (Array.to_list r.Cert.Exact.eps))))
            runs))
  in
  (* Reluplex-style engine under the same strategies: identical eps,
     fewer case splits under the guided rule. *)
  let reluplex_branches =
    let input = Cert.Bounds.box_domain dnn3 ~lo:0.0 ~hi:1.0 in
    let runs =
      List.map
        (fun s ->
          (s, Cert.Reluplex_style.global ~branch:s dnn3 ~input ~delta:0.001))
        Search.Strategy.all
    in
    let eps0 = (snd (List.hd runs)).Cert.Reluplex_style.eps in
    let eps_equal =
      List.for_all
        (fun (_, r) ->
          Array.for_all2
            (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
            eps0 r.Cert.Reluplex_style.eps)
        runs
    in
    if not eps_equal then
      gate_failures :=
        "dnn3: reluplex eps differs across branch strategies"
        :: !gate_failures;
    List.iter
      (fun (s, (r : Cert.Reluplex_style.result)) ->
        Format.fprintf fmt
          "%-8s reluplex branch=%-15s %6d nodes, eps0 %.9g%s@."
          "dnn3"
          (Search.Strategy.to_string s)
          r.Cert.Reluplex_style.nodes r.Cert.Reluplex_style.eps.(0)
          (if eps_equal then "" else "  EPS DRIFT"))
      runs;
    Printf.sprintf
      "{ \"name\": \"dnn3\", \"eps_bitwise_equal\": %b,\n\
      \    \"strategies\": [\n%s\n    ] }"
      eps_equal
      (String.concat ",\n"
         (List.map
            (fun (s, (r : Cert.Reluplex_style.result)) ->
              Printf.sprintf
                "      { \"branch\": %S, \"nodes\": %d, \"eps\": [%s] }"
                (Search.Strategy.to_string s)
                r.Cert.Reluplex_style.nodes
                (String.concat ", "
                   (List.map (Printf.sprintf "%.9g")
                      (Array.to_list r.Cert.Reluplex_style.eps))))
            runs))
  in
  let oc = open_out "BENCH_lp.json" in
  Printf.fprintf oc
    "{\n  \"sweeps\": [\n%s\n  ],\n\
    \  \"dense_vs_sparse_aggregate\": { \"cases\": [%s],\n\
    \    \"dense_time_s\": %.6f, \"sparse_time_s\": %.6f, \
     \"speedup\": %.3f },\n\
    \  \"certifier\": [\n%s\n  ],\n\
    \  \"symbolic\": [\n%s\n  ],\n\
    \  \"symbolic_hints\": %s,\n\
    \  \"branch\": [\n%s\n  ],\n\
    \  \"branch_exact\": %s,\n\
    \  \"branch_reluplex\": %s\n}\n"
    (String.concat ",\n" sweeps)
    (String.concat ", " (List.map (Printf.sprintf "%S") gate_cases))
    !agg_dense !agg_sparse agg_speedup
    (String.concat ",\n" certs)
    (String.concat ",\n" symbolics)
    sym_hints
    (String.concat ",\n" branches)
    branch_exact reluplex_branches;
  close_out oc;
  Format.fprintf fmt "wrote BENCH_lp.json@.";
  if !gate_failures <> [] then begin
    List.iter
      (fun f -> Format.fprintf fmt "lp-bench GATE FAILURE: %s@." f)
      !gate_failures;
    exit 1
  end

(* Service benchmark: the same certification answered three ways —
   cold one-shot [Cert.Certifier.certify] in-process, through a warm
   daemon (compiled cone matrices pooled across requests, result cache
   bypassed), and as a daemon cache hit.  Emits BENCH_serve.json. *)
let run_serve_bench () =
  header "serve-bench: daemon (warm / cache hit) vs cold one-shot certify";
  let sock = Filename.temp_file "grc-serve-bench" ".sock" in
  let addr = Serve.Server.Unix_path sock in
  let config =
    { (Serve.Server.default_config addr) with
      Serve.Server.workers = 1; handle_signals = false }
  in
  let srv = Domain.spawn (fun () -> Serve.Server.run config) in
  let client = Serve.Client.connect_retry addr in
  let time_ms f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let reps = 8 in
  let case name net ~lo ~hi ~delta =
    let digest = Serve.Client.load client (Nn.Io.to_string net) in
    let query no_cache =
      { Serve.Wire.default_query with
        Serve.Wire.q_digest = Some digest; q_delta = delta; q_lo = lo;
        q_hi = hi; q_no_cache = no_cache }
    in
    (* cold one-shot: fresh encodings, compiles and sessions each time *)
    let oneshot = ref [] in
    let eps_oneshot = ref [||] in
    for _ = 1 to reps do
      let r, ms =
        time_ms (fun () -> Cert.Certifier.certify_box net ~lo ~hi ~delta)
      in
      eps_oneshot := r.Cert.Certifier.eps;
      oneshot := ms :: !oneshot
    done;
    (* first daemon request: pool cold, cache miss *)
    let first, first_ms =
      time_ms (fun () -> Serve.Client.certify client (query true))
    in
    (* warm daemon: pooled matrices, cache still bypassed *)
    let warm = ref [] and warm_server = ref [] in
    let eps_daemon = ref first.Serve.Wire.r_eps in
    for _ = 1 to reps do
      let r, ms =
        time_ms (fun () -> Serve.Client.certify client (query true))
      in
      eps_daemon := r.Serve.Wire.r_eps;
      warm := ms :: !warm;
      warm_server := r.Serve.Wire.r_time_ms :: !warm_server
    done;
    (* cache hit: first call populates, the rest are lookups *)
    ignore (Serve.Client.certify client (query false));
    let hit = ref [] in
    for _ = 1 to reps do
      let r, ms =
        time_ms (fun () -> Serve.Client.certify client (query false))
      in
      if not r.Serve.Wire.r_cached then failwith "expected a cache hit";
      hit := ms :: !hit
    done;
    let bitwise_equal =
      Array.length !eps_oneshot = Array.length !eps_daemon
      && Array.for_all2
           (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
           !eps_oneshot !eps_daemon
    in
    let cold_ms = mean !oneshot
    and warm_ms = mean !warm
    and hit_ms = mean !hit in
    Format.fprintf fmt
      "%-8s cold one-shot %8.3fms; daemon first %8.3fms, warm %8.3fms \
       (server %.3fms), cache hit %8.3fms; warm speedup %.2fx; bitwise \
       equal: %b@."
      name cold_ms first_ms warm_ms (mean !warm_server) hit_ms
      (cold_ms /. warm_ms) bitwise_equal;
    if not bitwise_equal then
      failwith (name ^ ": daemon eps differs from one-shot certify");
    Serve.Json.Obj
      [ ("name", Serve.Json.Str name);
        ("delta", Serve.Json.Num delta);
        ("reps", Serve.Json.Num (float_of_int reps));
        ("cold_oneshot_ms", Serve.Json.Num cold_ms);
        ("daemon_first_ms", Serve.Json.Num first_ms);
        ("daemon_warm_ms", Serve.Json.Num warm_ms);
        ("daemon_warm_server_ms", Serve.Json.Num (mean !warm_server));
        ("cache_hit_ms", Serve.Json.Num hit_ms);
        ("warm_speedup", Serve.Json.Num (cold_ms /. warm_ms));
        ("hit_speedup", Serve.Json.Num (cold_ms /. hit_ms));
        ("bitwise_equal_to_oneshot", Serve.Json.Bool bitwise_equal) ]
  in
  let dnn3 =
    (Exp.Models.auto_mpg_net ~id:"dnn3" ~sizes:(8, 8) ()).Exp.Models.net
  in
  let dnn4 =
    (Exp.Models.auto_mpg_net ~id:"dnn4" ~sizes:(16, 16) ()).Exp.Models.net
  in
  (* networks where encoding + compiling the cone matrices is a
     visible share of a request; the big MILP-dominated models (dnn5
     up) only measure B&B noise, which the pool cannot touch.
     Evaluation order is the report order (the daemon warms up case by
     case). *)
  let r3 = case "dnn3" dnn3 ~lo:0.0 ~hi:1.0 ~delta:0.001 in
  let r4 = case "dnn4" dnn4 ~lo:0.0 ~hi:1.0 ~delta:0.001 in
  let rows = [ r3; r4 ] in
  let stats =
    match Serve.Client.rpc client Serve.Wire.Stats with
    | Serve.Wire.Stats_payload j -> j
    | _ -> Serve.Json.Null
  in
  (match Serve.Client.rpc client Serve.Wire.Shutdown with
   | Serve.Wire.Ack -> ()
   | _ -> failwith "daemon refused shutdown");
  Serve.Client.close client;
  Domain.join srv;
  (* --- shard scaling: one dnn3 grid swept through 1, 2 and 4 shards ---

     Every configuration answers the same cells with the cache bypassed,
     so the wall-clock ratio is pure fan-out.  The >= 1.6x gate on 2
     shards needs real parallelism, so it is enforced only when the
     machine has cores to scale onto; single-core runs still record the
     measured numbers. *)
  header "serve-bench: shard scaling (dnn3 sweep through 1/2/4 shards)";
  let deltas = [ 0.001; 0.0015; 0.002; 0.0025 ] in
  let regions = [ (0.0, 0.5); (0.25, 0.75); (0.5, 1.0); (0.0, 1.0) ] in
  let cells =
    List.concat_map
      (fun d -> List.map (fun (lo, hi) -> (d, lo, hi)) regions)
      deltas
    |> Array.of_list
  in
  let n_cells = Array.length cells in
  let oneshot_eps =
    Array.map
      (fun (delta, lo, hi) ->
        (Cert.Certifier.certify_box dnn3 ~lo ~hi ~delta).Cert.Certifier.eps)
      cells
  in
  let net_text = Nn.Io.to_string dnn3 in
  let fresh_addr () =
    let p = Filename.temp_file "grc-serve-bench" ".sock" in
    Sys.remove p;
    Serve.Server.Unix_path p
  in
  let run_shards shards =
    let baddrs = List.init shards (fun _ -> fresh_addr ()) in
    let daemons =
      List.map
        (fun addr ->
          Domain.spawn (fun () ->
              Serve.Server.run
                { (Serve.Server.default_config addr) with
                  Serve.Server.workers = 1; handle_signals = false }))
        baddrs
    in
    let front = fresh_addr () in
    let router =
      Domain.spawn (fun () ->
          Serve.Shard.run
            { (Serve.Shard.default_config front ~backends:baddrs) with
              Serve.Shard.handle_signals = false })
    in
    let c = Serve.Client.connect_retry front in
    let digest = Serve.Client.load c net_text in
    let queries =
      Array.map
        (fun (delta, lo, hi) ->
          { Serve.Wire.default_query with
            Serve.Wire.q_digest = Some digest; q_delta = delta; q_lo = lo;
            q_hi = hi; q_no_cache = true })
        cells
    in
    let t0 = Unix.gettimeofday () in
    let completed = ref 0 in
    let traj = ref [] in
    let results, degraded =
      Serve.Client.certify_batch c
        ~on_item:(fun _ _ ->
          incr completed;
          traj := (Unix.gettimeofday () -. t0, !completed) :: !traj)
        queries
    in
    let wall = Unix.gettimeofday () -. t0 in
    Array.iteri
      (fun i res ->
        match res with
        | Ok r ->
            let same =
              Array.length r.Serve.Wire.r_eps = Array.length oneshot_eps.(i)
              && Array.for_all2
                   (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
                   r.Serve.Wire.r_eps oneshot_eps.(i)
            in
            if not same then
              failwith
                (Printf.sprintf
                   "serve-bench: %d-shard sweep cell %d not bitwise equal"
                   shards i)
        | Error msg ->
            failwith
              (Printf.sprintf "serve-bench: %d-shard sweep cell %d: %s"
                 shards i msg))
      results;
    (match Serve.Client.rpc c Serve.Wire.Shutdown with
     | Serve.Wire.Ack -> ()
     | _ -> failwith "router refused shutdown");
    Serve.Client.close c;
    Domain.join router;
    List.iter Domain.join daemons;
    (wall, float_of_int n_cells /. wall, degraded, List.rev !traj)
  in
  let scale_rows =
    List.map
      (fun shards ->
        let wall, qps, degraded, traj = run_shards shards in
        Format.fprintf fmt "shards=%d: %d cells in %.3fs (%.1f cells/s)@."
          shards n_cells wall qps;
        (shards, wall, qps, degraded, traj))
      [ 1; 2; 4 ]
  in
  let qps_of k =
    match List.find_opt (fun (s, _, _, _, _) -> s = k) scale_rows with
    | Some (_, _, q, _, _) -> q
    | None -> nan
  in
  let speedup2 = qps_of 2 /. qps_of 1 in
  let cores = Domain.recommended_domain_count () in
  let gate_enforced = cores >= 2 in
  let gate_pass = speedup2 >= 1.6 in
  Format.fprintf fmt
    "2-shard throughput speedup: %.2fx (gate >= 1.60x, %s; %d core%s)@."
    speedup2
    (if gate_enforced then "enforced" else "recorded only")
    cores
    (if cores = 1 then "" else "s");
  let scaling_json =
    Serve.Json.Obj
      [ ("net", Serve.Json.Str "dnn3");
        ("cells", Serve.Json.Num (float_of_int n_cells));
        ("shards",
         Serve.Json.List
           (List.map
              (fun (shards, wall, qps, degraded, traj) ->
                Serve.Json.Obj
                  [ ("shards", Serve.Json.Num (float_of_int shards));
                    ("wall_s", Serve.Json.Num wall);
                    ("throughput_qps", Serve.Json.Num qps);
                    ("speedup_vs_1", Serve.Json.Num (qps /. qps_of 1));
                    ("degraded", Serve.Json.Bool degraded);
                    ("trajectory",
                     Serve.Json.List
                       (List.map
                          (fun (t, d) ->
                            Serve.Json.Obj
                              [ ("t_s", Serve.Json.Num t);
                                ("done",
                                 Serve.Json.Num (float_of_int d)) ])
                          traj)) ])
              scale_rows));
        ("gate",
         Serve.Json.Obj
           [ ("min_speedup_2_shards", Serve.Json.Num 1.6);
             ("measured_speedup_2_shards", Serve.Json.Num speedup2);
             ("cores", Serve.Json.Num (float_of_int cores));
             ("enforced", Serve.Json.Bool gate_enforced);
             ("pass", Serve.Json.Bool gate_pass) ]) ]
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc
    (Serve.Json.to_string
       (Serve.Json.Obj
          [ ("cases", Serve.Json.List rows); ("daemon_stats", stats);
            ("scaling", scaling_json) ]));
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "wrote BENCH_serve.json@.";
  if gate_enforced && not gate_pass then begin
    Format.fprintf fmt
      "serve-bench GATE FAILURE: 2-shard throughput speedup %.2fx < 1.60x@."
      speedup2;
    exit 1
  end

(* Observability overhead: what the always-compiled-in instrumentation
   costs when tracing is off (the production configuration).  Two
   measurements combine into the gate:

   - the per-call cost of a disabled [Obs.Trace.with_span] over the
     bare closure (one atomic load plus a closure call), measured on a
     tight loop;
   - the number of instrumentation events (spans + counter updates) a
     representative certification actually executes, counted from one
     traced run.

   Their product over the measured certification time bounds the
   disabled-mode tax.  The direct difference of two certify timings
   cannot resolve a sub-percent effect over solver noise, so the gate
   multiplies the resolvable microbenchmark into the real event count
   instead.  Fails (exit 1) above 5%; emits BENCH_obs.json. *)
let run_obs_bench () =
  header "obs-bench: disabled-tracing overhead gate (<= 5%)";
  Obs.Trace.set_enabled false;
  let iters = 2_000_000 in
  let sink = ref 0 in
  let bare () = incr sink in
  let time_s f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* interleave several rounds and keep the minima: resistant to
     one-off scheduler noise in either direction *)
  let rounds = 5 in
  let best_bare = ref infinity and best_span = ref infinity in
  for _ = 1 to rounds do
    let tb = time_s (fun () -> for _ = 1 to iters do bare () done) in
    let ts =
      time_s (fun () ->
          for _ = 1 to iters do
            Obs.Trace.with_span "bench.noop" bare
          done)
    in
    if tb < !best_bare then best_bare := tb;
    if ts < !best_span then best_span := ts
  done;
  ignore (Sys.opaque_identity !sink);
  let per_call_ns =
    Float.max 0.0 ((!best_span -. !best_bare) /. float_of_int iters *. 1e9)
  in
  Format.fprintf fmt
    "disabled with_span: %.1fns/call over the bare closure@." per_call_ns;
  (* how many instrumentation events one certification executes *)
  let net =
    (Exp.Models.auto_mpg_net ~id:"dnn3" ~sizes:(8, 8) ()).Exp.Models.net
  in
  let lo = 0.0 and hi = 1.0 and delta = 0.001 in
  let certify () = Cert.Certifier.certify_box net ~lo ~hi ~delta in
  Obs.Trace.reset ();
  Obs.Trace.set_enabled true;
  let traced_s = time_s (fun () -> ignore (certify ())) in
  Obs.Trace.set_enabled false;
  let rec n_events (s : Obs.Trace.span) =
    1
    + List.length s.Obs.Trace.sp_counters
    + List.fold_left
        (fun acc c -> acc + n_events c)
        0 s.Obs.Trace.sp_children
  in
  let events =
    List.fold_left (fun acc r -> acc + n_events r) 0 (Obs.Trace.roots ())
  in
  Obs.Trace.reset ();
  (* disabled-mode certification time (the deployment baseline) *)
  let reps = 5 in
  let best_certify = ref infinity in
  for _ = 1 to reps do
    let t = time_s (fun () -> ignore (certify ())) in
    if t < !best_certify then best_certify := t
  done;
  let overhead_frac =
    float_of_int events *. per_call_ns *. 1e-9 /. !best_certify
  in
  Format.fprintf fmt
    "certify dnn3: %.3fms disabled (%.3fms traced), %d instrumentation \
     events -> disabled overhead %.4f%%@."
    (!best_certify *. 1000.0) (traced_s *. 1000.0) events
    (overhead_frac *. 100.0);
  let oc = open_out "BENCH_obs.json" in
  output_string oc
    (Serve.Json.to_string
       (Serve.Json.Obj
          [ ("per_call_disabled_ns", Serve.Json.Num per_call_ns);
            ("microbench_iters", Serve.Json.Num (float_of_int iters));
            ("events_per_certify", Serve.Json.Num (float_of_int events));
            ("certify_disabled_ms",
             Serve.Json.Num (!best_certify *. 1000.0));
            ("certify_traced_ms", Serve.Json.Num (traced_s *. 1000.0));
            ("disabled_overhead_fraction", Serve.Json.Num overhead_frac);
            ("gate", Serve.Json.Num 0.05);
            ("pass", Serve.Json.Bool (overhead_frac <= 0.05)) ]));
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "wrote BENCH_obs.json@.";
  if overhead_frac > 0.05 then
    failwith
      (Printf.sprintf
         "disabled-tracing overhead %.2f%% exceeds the 5%% gate"
         (overhead_frac *. 100.0))

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
  let eps_max e = Array.fold_left Float.max 0.0 e in
  let on_epoch (r : Exp.Train_robust.epoch_record) _ =
    match r.Exp.Train_robust.recert with
    | Some rc ->
        Format.fprintf fmt
          "epoch %d: train %.5f test %.5f acc %.3f surrogate %.4g | eps \
           %.6f cache %d/%d %.2fs (%.1f cells/s)%s@."
          r.Exp.Train_robust.epoch r.Exp.Train_robust.train_loss
          r.Exp.Train_robust.metric r.Exp.Train_robust.accuracy
          r.Exp.Train_robust.surrogate
          (eps_max rc.Exp.Train_robust.rc_eps)
          rc.Exp.Train_robust.rc_cache_hits rc.Exp.Train_robust.rc_cells
          rc.Exp.Train_robust.rc_wall rc.Exp.Train_robust.rc_throughput
          (if rc.Exp.Train_robust.rc_degraded then " DEGRADED" else "")
    | None ->
        Format.fprintf fmt "epoch %d: train %.5f acc %.3f@."
          r.Exp.Train_robust.epoch r.Exp.Train_robust.train_loss
          r.Exp.Train_robust.accuracy
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
  let eps_of (r : Exp.Train_robust.epoch_record) =
    match r.Exp.Train_robust.recert with
    | Some rc -> eps_max rc.Exp.Train_robust.rc_eps
    | None -> nan
  in
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
  let record_json (r : Exp.Train_robust.epoch_record) =
    let base =
      [ ("epoch", Serve.Json.Num (float_of_int r.Exp.Train_robust.epoch));
        ("train_loss", Serve.Json.Num r.Exp.Train_robust.train_loss);
        ("test_loss", Serve.Json.Num r.Exp.Train_robust.metric);
        ("accuracy", Serve.Json.Num r.Exp.Train_robust.accuracy);
        ("surrogate", Serve.Json.Num r.Exp.Train_robust.surrogate) ]
    in
    let rc =
      match r.Exp.Train_robust.recert with
      | None -> []
      | Some rc ->
          [ ("digest", Serve.Json.Str rc.Exp.Train_robust.rc_digest);
            ("certified_eps", Serve.Json.Num (eps_max rc.Exp.Train_robust.rc_eps));
            ("cells", Serve.Json.Num (float_of_int rc.Exp.Train_robust.rc_cells));
            ("cache_hits",
             Serve.Json.Num (float_of_int rc.Exp.Train_robust.rc_cache_hits));
            ("wall_s", Serve.Json.Num rc.Exp.Train_robust.rc_wall);
            ("cells_per_s", Serve.Json.Num rc.Exp.Train_robust.rc_throughput);
            ("degraded", Serve.Json.Bool rc.Exp.Train_robust.rc_degraded) ]
    in
    Serve.Json.Obj (base @ rc)
  in
  let oc = open_out "BENCH_train.json" in
  output_string oc
    (Serve.Json.to_string
       (Serve.Json.Obj
          [ ("id", Serve.Json.Str trained.Exp.Models.id);
            ("delta", Serve.Json.Num delta);
            ("lambda", Serve.Json.Num config.Exp.Train_robust.lambda);
            ("epochs", Serve.Json.List (List.map record_json records));
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
  run_lp_bench ();
  run_obs_bench ();
  run_serve_bench ();
  run_ablation_refine ();
  run_ablation_window ();
  run_ablation_symbolic ();
  run_ablation_itne ();
  run_micro ();
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
  | [ "micro" ] -> run_micro ()
  | [ "lp-bench" ] -> run_lp_bench ()
  | [ "serve-bench" ] -> run_serve_bench ()
  | [ "train-bench" ] -> run_train_bench ()
  | [ "obs-bench" ] -> run_obs_bench ()
  | other ->
      Format.eprintf "unknown bench target: %s@." (String.concat " " other);
      exit 2
