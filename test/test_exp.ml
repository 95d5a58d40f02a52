(* Tests for the experiment layer: model training quality, Table I
   plumbing, Fig. 4 regression and ablation structure. *)

let with_tmp_cache = Test_nets.with_tmp_cache

let test_auto_mpg_trains () =
  with_tmp_cache (fun () ->
      let t = Exp.Models.auto_mpg_net ~id:"t-mpg" ~sizes:(6, 4) () in
      Alcotest.(check bool) "mse reasonable" true
        (t.Exp.Models.test_metric < 0.05);
      Alcotest.(check int) "hidden" 10
        (Nn.Network.hidden_neuron_count t.Exp.Models.net))

let test_cache_roundtrip () =
  with_tmp_cache (fun () ->
      let t1 = Exp.Models.auto_mpg_net ~id:"t-cache" ~sizes:(4, 4) () in
      (* second call must load the identical network from disk *)
      let t2 = Exp.Models.auto_mpg_net ~id:"t-cache" ~sizes:(4, 4) () in
      let x = Array.make 7 0.5 in
      Alcotest.(check bool) "same prediction" true
        (Linalg.Vec.equal ~eps:0.0
           (Nn.Network.forward t1.Exp.Models.net x)
           (Nn.Network.forward t2.Exp.Models.net x)))

let test_digits_net_learns () =
  with_tmp_cache (fun () ->
      let t = Exp.Models.digits_net ~id:"t-dig" ~conv_layers:1 ~image:10 () in
      (* 10 classes: anything far above chance shows learning *)
      Alcotest.(check bool) "accuracy > 0.5" true
        (t.Exp.Models.test_metric > 0.5))

let test_table1_row_structure () =
  with_tmp_cache (fun () ->
      let t = Exp.Models.auto_mpg_net ~id:"t-row" ~sizes:(4, 4) () in
      let row =
        Exp.Table1.run ~with_exact:false ~pgd_samples:5
          ~config:Exp.Table1.auto_mpg_config ~delta:0.001 t
      in
      Alcotest.(check bool) "no exact" true (row.Exp.Table1.reluplex = None);
      Alcotest.(check bool) "ours complete" true
        row.Exp.Table1.ours.Exp.Table1.complete;
      (* under-approximation below over-approximation *)
      Alcotest.(check bool) "under <= ours" true
        (row.Exp.Table1.under.Exp.Table1.eps.(0)
         <= row.Exp.Table1.ours.Exp.Table1.eps.(0)))

let test_fig4_entries_complete () =
  let entries = Exp.Fig4.run () in
  Alcotest.(check int) "9 rows" 9 (List.length entries);
  List.iter
    (fun (e : Exp.Fig4.entry) ->
      Alcotest.(check bool)
        (e.Exp.Fig4.name ^ " non-empty") true
        (e.Exp.Fig4.computed.Cert.Interval.lo
         <= e.Exp.Fig4.computed.Cert.Interval.hi))
    entries

let test_ablation_sweeps () =
  with_tmp_cache (fun () ->
      let t = Exp.Models.auto_mpg_net ~id:"t-abl" ~sizes:(4, 4) () in
      let refine = Exp.Ablation.refine_sweep ~counts:[ 0; 4 ] t in
      Alcotest.(check int) "refine rows" 2 (List.length refine);
      (match refine with
       | [ r0; r4 ] ->
           Alcotest.(check bool) "refinement tightens" true
             (r4.Exp.Ablation.eps <= r0.Exp.Ablation.eps +. 1e-9)
       | _ -> Alcotest.fail "rows");
      let window = Exp.Ablation.window_sweep ~windows:[ 1; 3 ] t in
      (match window with
       | [ w1; w3 ] ->
           Alcotest.(check bool) "wider window tightens" true
             (w3.Exp.Ablation.eps <= w1.Exp.Ablation.eps +. 1e-9)
       | _ -> Alcotest.fail "rows"))

let test_ablation_itne_ordering () =
  let rows = Exp.Ablation.itne_vs_btne ~widths:[ 3 ] ~delta:0.05 () in
  match rows with
  | [ r ] ->
      (* the paper's qualitative claims *)
      Alcotest.(check bool) "itne-nd <= btne-nd" true
        (r.Exp.Ablation.eps_itne_nd <= r.Exp.Ablation.eps_btne_nd +. 1e-9);
      Alcotest.(check bool) "everything >= exact" true
        (r.Exp.Ablation.eps_itne_nd >= r.Exp.Ablation.eps_exact -. 1e-6
         && r.Exp.Ablation.eps_itne_lpr >= r.Exp.Ablation.eps_exact -. 1e-6
         && r.Exp.Ablation.eps_algo1 >= r.Exp.Ablation.eps_exact -. 1e-6)
  | _ -> Alcotest.fail "expected one row"

let suites =
  [ ( "exp:models",
      [ Alcotest.test_case "auto-mpg trains" `Slow test_auto_mpg_trains;
        Alcotest.test_case "cache roundtrip" `Slow test_cache_roundtrip;
        Alcotest.test_case "digits net learns" `Slow test_digits_net_learns ]
    );
    ( "exp:experiments",
      [ Alcotest.test_case "table1 row structure" `Slow
          test_table1_row_structure;
        Alcotest.test_case "fig4 entries" `Slow test_fig4_entries_complete;
        Alcotest.test_case "ablation sweeps" `Slow test_ablation_sweeps;
        Alcotest.test_case "itne vs btne ordering" `Slow
          test_ablation_itne_ordering ] ) ]
