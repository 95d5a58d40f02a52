(* Tests for the audit subsystem: model linter, certificate checker,
   audit mode plumbing, and the encoding auditor. *)

module Model = Lp.Model
module Diag = Audit_core.Diag
module Lint = Audit_core.Lint
module Certificate = Audit_core.Certificate
module Mode = Audit_core.Mode

let has code diags = List.exists (fun d -> d.Diag.code = code) diags

let codes diags = String.concat "," (List.map (fun d -> d.Diag.code) diags)

(* --- linter --- *)

let clean_model () =
  let m = Model.create () in
  let x = Model.add_var ~name:"x" ~lo:0.0 ~hi:10.0 m in
  let y = Model.add_var ~name:"y" ~lo:0.0 ~hi:10.0 m in
  Model.add_constr m [ (x, 1.0); (y, 2.0) ] Model.Le 6.0;
  Model.add_constr m [ (x, 3.0); (y, -1.0) ] Model.Ge ~-.2.0;
  Model.set_objective m Model.Maximize [ (x, 1.0); (y, 1.0) ];
  (m, x, y)

let test_lint_clean () =
  let m, _, _ = clean_model () in
  let diags = Lint.model m in
  Alcotest.(check string) "no findings" "" (codes diags)

let test_lint_nan_coeff () =
  let m, x, _ = clean_model () in
  Model.add_constr m [ (x, Float.nan) ] Model.Le 1.0;
  let diags = Lint.model m in
  Alcotest.(check bool) "flagged" true (has "nonfinite-coefficient" diags);
  Alcotest.(check bool) "is error" true (Diag.errors diags <> [])

let test_lint_dup_and_zero_coeff () =
  let m, x, y = clean_model () in
  Model.add_constr m [ (x, 1.0); (x, 2.0) ] Model.Le 8.0;
  Model.add_constr m [ (x, 1.0); (y, 0.0) ] Model.Le 9.0;
  let diags = Lint.model m in
  Alcotest.(check bool) "duplicate" true (has "duplicate-coefficient" diags);
  Alcotest.(check bool) "zero" true (has "zero-coefficient" diags)

let test_lint_infeasible_row () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:1.0 m in
  let y = Model.add_var ~lo:0.0 ~hi:1.0 m in
  Model.set_objective m Model.Minimize [ (x, 1.0); (y, 1.0) ];
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Ge 10.0;
  let diags = Lint.model m in
  Alcotest.(check bool) "flagged" true (has "infeasible-row" diags);
  Alcotest.(check bool) "is error" true (Diag.errors diags <> [])

let test_lint_vacuous_row () =
  let m, x, _ = clean_model () in
  Model.add_constr m [ (x, 1.0) ] Model.Le 1000.0;
  Alcotest.(check bool) "flagged" true (has "vacuous-row" (Lint.model m))

let test_lint_duplicate_rows () =
  let m, x, y = clean_model () in
  Model.add_constr m [ (y, 2.0); (x, 1.0) ] Model.Le 6.0;
  Alcotest.(check bool) "flagged" true (has "duplicate-row" (Lint.model m))

let test_lint_conflicting_rows () =
  let m, x, y = clean_model () in
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Eq 2.0;
  Model.add_constr m [ (x, 1.0); (y, 1.0) ] Model.Eq 3.0;
  let diags = Lint.model m in
  Alcotest.(check bool) "flagged" true (has "conflicting-rows" diags);
  Alcotest.(check bool) "is error" true (Diag.errors diags <> [])

let test_lint_conditioning () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:1.0 m in
  let y = Model.add_var ~lo:0.0 ~hi:1.0 m in
  Model.set_objective m Model.Minimize [ (x, 1.0); (y, 1.0) ];
  Model.add_constr m [ (x, 1e9); (y, 1e-3) ] Model.Le 1e9;
  Model.add_constr m [ (x, 1.0); (y, 1e-12) ] Model.Le 2.0;
  let diags = Lint.model m in
  Alcotest.(check bool) "ratio" true (has "ill-conditioned-row" diags);
  Alcotest.(check bool) "sub-pivot" true (has "negligible-coefficient" diags)

let test_lint_columns () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:1.0 m in
  let _unused = Model.add_var ~lo:0.0 ~hi:1.0 m in
  let fixed = Model.add_var ~lo:0.5 ~hi:0.5 m in
  Model.set_objective m Model.Minimize [ (x, 1.0) ];
  Model.add_constr m [ (x, 1.0); (fixed, 1.0) ] Model.Ge 0.25;
  let diags = Lint.model m in
  Alcotest.(check bool) "unused" true (has "unused-column" diags);
  Alcotest.(check bool) "fixed" true (has "fixed-column" diags)

(* --- certificate checker --- *)

let test_certificate_accepts () =
  let m, _, _ = clean_model () in
  let sol = Lp.Simplex.solve m in
  Alcotest.(check bool) "optimal" true (sol.Lp.Simplex.status = Lp.Simplex.Optimal);
  Alcotest.(check string) "no findings" "" (codes (Certificate.check ~model:m sol))

let test_certificate_rejects_tampering () =
  let m, _, _ = clean_model () in
  let sol = Lp.Simplex.solve m in
  let wrong_obj = { sol with Lp.Simplex.obj = sol.Lp.Simplex.obj +. 1.0 } in
  Alcotest.(check bool) "objective mismatch" true
    (has "objective-mismatch" (Certificate.check ~model:m wrong_obj));
  let x = Array.copy sol.Lp.Simplex.x in
  x.(0) <- x.(0) +. 5.0;
  let moved = { sol with Lp.Simplex.x = x } in
  let diags = Certificate.check ~model:m moved in
  Alcotest.(check bool) "primal violation" true
    (has "row-violation" diags || has "bound-violation" diags
     || has "objective-mismatch" diags)

let test_certificate_rejects_bad_duals () =
  let m, _, _ = clean_model () in
  let sol = Lp.Simplex.solve m in
  Alcotest.(check bool) "duals present" true
    (Array.length sol.Lp.Simplex.duals = Model.n_constrs m);
  let duals = Array.map (fun d -> d +. 0.5) sol.Lp.Simplex.duals in
  let bad = { sol with Lp.Simplex.duals } in
  let diags = Certificate.check ~model:m bad in
  Alcotest.(check bool) "dual findings" true
    (has "dual-infeasible" diags || has "dual-sign" diags
     || has "complementary-slackness" diags)

let test_certificate_ignores_non_optimal () =
  let m = Model.create () in
  let x = Model.add_var ~lo:0.0 ~hi:1.0 m in
  Model.add_constr m [ (x, 1.0) ] Model.Ge 2.0;
  Model.set_objective m Model.Minimize [ (x, 1.0) ];
  let sol = Lp.Simplex.solve m in
  Alcotest.(check bool) "infeasible" true
    (sol.Lp.Simplex.status = Lp.Simplex.Infeasible);
  Alcotest.(check string) "no findings" "" (codes (Certificate.check ~model:m sol))

(* --- audit mode plumbing --- *)

let test_mode_switch () =
  let before = Mode.enabled () in
  Mode.with_enabled true (fun () ->
      Alcotest.(check bool) "enabled" true (Mode.enabled ());
      Alcotest.(check bool) "simplex follows" true !Lp.Simplex.audit_mode;
      Mode.with_enabled false (fun () ->
          Alcotest.(check bool) "nested off" false (Mode.enabled ())));
  Alcotest.(check bool) "restored" true (Mode.enabled () = before)

let test_mode_report_raises () =
  Mode.with_enabled true (fun () ->
      let err =
        Diag.make Diag.Error ~pass:"test" ~code:"boom"
          ~loc:(Diag.loc "unit") "synthetic"
      in
      Alcotest.check_raises "raises" (Diag.Audit_failure [ err ]) (fun () ->
          Mode.report [ err ]))

let test_warm_solves_cross_check () =
  Mode.with_enabled true (fun () ->
      let m, x, y = clean_model () in
      let session = Lp.Simplex.create_session (Lp.Simplex.compile m) in
      (* hot restarts over changing objectives and bounds; the cold
         cross-check must agree every time *)
      for k = 0 to 9 do
        let c = float_of_int (k mod 3) -. 1.0 in
        let sol =
          Lp.Simplex.solve_session
            ~objective:(Model.Maximize, [ (x, 1.0); (y, c) ])
            session
        in
        Alcotest.(check bool) "optimal" true
          (sol.Lp.Simplex.status = Lp.Simplex.Optimal);
        Lp.Simplex.set_var_bounds session x ~lo:0.0
          ~hi:(1.0 +. float_of_int k)
      done;
      let stats = Lp.Simplex.session_stats session in
      Alcotest.(check int) "no mismatches" 0 stats.Lp.Simplex.audit_mismatches;
      Alcotest.(check bool) "warm path exercised" true
        (stats.Lp.Simplex.warm_solves > 0))

let test_milp_audited () =
  Mode.with_enabled true (fun () ->
      let m = Model.create () in
      let x = Model.add_var ~integer:true ~lo:0.0 ~hi:5.0 m in
      let y = Model.add_var ~lo:0.0 ~hi:5.0 m in
      Model.add_constr m [ (x, 2.0); (y, 3.0) ] Model.Le 12.0;
      Model.set_objective m Model.Maximize [ (x, 2.0); (y, 1.0) ];
      let r = Milp.solve m in
      Alcotest.(check bool) "optimal" true (r.Milp.status = Milp.Optimal))

(* --- encoding auditor --- *)

let small_net () =
  let rng = Random.State.make [| 0xbeef |] in
  Nn.Network.make
    [ Nn.Layer.dense_random ~relu:true ~rng ~in_dim:3 ~out_dim:4 ();
      Nn.Layer.dense_random ~relu:true ~rng ~in_dim:4 ~out_dim:3 ();
      Nn.Layer.dense_random ~rng ~in_dim:3 ~out_dim:2 () ]

let propagated_bounds net =
  let bounds =
    Cert.Bounds.create net
      ~input:(Cert.Bounds.box_domain net ~lo:0.0 ~hi:1.0)
      ~input_dist:(Cert.Bounds.uniform_delta net 0.01)
  in
  Cert.Interval_prop.propagate net bounds;
  bounds

let test_encoding_clean () =
  let net = small_net () in
  let bounds = propagated_bounds net in
  Alcotest.(check string) "intervals" ""
    (codes (Audit.Encoding.intervals bounds));
  Alcotest.(check string) "soundness" ""
    (codes (Audit.Encoding.bounds_soundness net bounds));
  let view = Cert.Subnet.full net in
  let enc = Cert.Encode.itne ~mode:Cert.Encode.Relaxed ~bounds view in
  Alcotest.(check string) "itne" ""
    (codes
       (List.filter
          (fun d -> d.Diag.severity = Diag.Error)
          (Audit.Encoding.itne ~bounds enc)));
  let benc =
    Cert.Encode.btne ~split_relus:true ~link_input_dist:true
      ~mode:Cert.Encode.Relaxed ~bounds view
  in
  Alcotest.(check string) "btne" "" (codes (Audit.Encoding.btne benc))

let test_encoding_catches_bad_interval () =
  let net = small_net () in
  let bounds = propagated_bounds net in
  bounds.Cert.Bounds.dy.(0).(0) <- Cert.Interval.point 0.0;
  let diags = Audit.Encoding.bounds_soundness net bounds in
  Alcotest.(check bool) "unsound interval" true (has "unsound-interval" diags)

let test_encoding_catches_malformed_interval () =
  let net = small_net () in
  let bounds = propagated_bounds net in
  bounds.Cert.Bounds.y.(1).(0) <- { Cert.Interval.lo = 1.0; hi = -1.0 };
  let diags = Audit.Encoding.intervals bounds in
  Alcotest.(check bool) "invalid interval" true (has "invalid-interval" diags)

(* --- symbolic-check pass --- *)

let test_symbolic_check_clean () =
  let net = small_net () in
  let input = Cert.Bounds.box_domain net ~lo:0.0 ~hi:1.0 in
  let delta = 0.01 in
  let certified =
    (Cert.Certifier.certify net ~input ~delta).Cert.Certifier.bounds
  in
  let diags = Audit.Symbolic_check.check ~certified net ~input ~delta in
  Alcotest.(check string) "no findings" "" (codes diags)

let test_symbolic_check_catches_disjoint_certified () =
  let net = small_net () in
  let input = Cert.Bounds.box_domain net ~lo:0.0 ~hi:1.0 in
  let delta = 0.01 in
  let certified =
    (Cert.Certifier.certify net ~input ~delta).Cert.Certifier.bounds
  in
  (* teleport one certified interval away from anything the symbolic
     analysis can produce: the nonempty-meet check must fire *)
  certified.Cert.Bounds.y.(0).(0) <- Cert.Interval.make 1e6 1e7;
  let diags = Audit.Symbolic_check.check ~certified net ~input ~delta in
  Alcotest.(check bool) "empty meet flagged" true (has "empty-meet" diags)

(* an empty meet inside the symbolic propagation itself is a structured
   audit diagnostic under audit mode, and a silent keep otherwise *)
let test_symbolic_meet_store_empty () =
  let stored = Cert.Interval.make 0.0 1.0 in
  let fresh = Cert.Interval.make 2.0 3.0 in
  (* audit off: the store wins, no exception *)
  let kept =
    Mode.with_enabled false (fun () ->
        Cert.Symbolic.meet_store ~what:"y" ~neuron:(0, 1) stored fresh)
  in
  Alcotest.(check bool) "store kept" true (Cert.Interval.equal kept stored);
  (* audit on: Error diagnostic, reported and raised *)
  Mode.with_enabled true (fun () ->
      match Cert.Symbolic.meet_store ~what:"y" ~neuron:(0, 1) stored fresh with
      | _ -> Alcotest.fail "empty meet not reported"
      | exception Diag.Audit_failure [ d ] ->
          Alcotest.(check string) "code" "empty-meet" d.Diag.code;
          Alcotest.(check string) "pass" "symbolic" d.Diag.pass)

let test_certifier_runs_audited () =
  Mode.with_enabled true (fun () ->
      let net = small_net () in
      let input = Cert.Bounds.box_domain net ~lo:0.0 ~hi:1.0 in
      let res = Cert.Certifier.certify net ~input ~delta:0.01 in
      Array.iter
        (fun e -> Alcotest.(check bool) "finite eps" true (Float.is_finite e))
        res.Cert.Certifier.eps)

let suites =
  [ ( "audit:lint",
      [ Alcotest.test_case "clean model" `Quick test_lint_clean;
        Alcotest.test_case "nan coefficient" `Quick test_lint_nan_coeff;
        Alcotest.test_case "dup / zero coefficient" `Quick
          test_lint_dup_and_zero_coeff;
        Alcotest.test_case "infeasible row" `Quick test_lint_infeasible_row;
        Alcotest.test_case "vacuous row" `Quick test_lint_vacuous_row;
        Alcotest.test_case "duplicate rows" `Quick test_lint_duplicate_rows;
        Alcotest.test_case "conflicting rows" `Quick
          test_lint_conflicting_rows;
        Alcotest.test_case "conditioning" `Quick test_lint_conditioning;
        Alcotest.test_case "columns" `Quick test_lint_columns ] );
    ( "audit:certificate",
      [ Alcotest.test_case "accepts a correct optimum" `Quick
          test_certificate_accepts;
        Alcotest.test_case "rejects tampering" `Quick
          test_certificate_rejects_tampering;
        Alcotest.test_case "rejects bad duals" `Quick
          test_certificate_rejects_bad_duals;
        Alcotest.test_case "ignores non-optimal" `Quick
          test_certificate_ignores_non_optimal ] );
    ( "audit:mode",
      [ Alcotest.test_case "switch and restore" `Quick test_mode_switch;
        Alcotest.test_case "report raises on error" `Quick
          test_mode_report_raises;
        Alcotest.test_case "warm solves cross-check" `Quick
          test_warm_solves_cross_check;
        Alcotest.test_case "milp incumbent audited" `Quick test_milp_audited ] );
    ( "audit:encoding",
      [ Alcotest.test_case "clean encoding" `Quick test_encoding_clean;
        Alcotest.test_case "catches unsound interval" `Quick
          test_encoding_catches_bad_interval;
        Alcotest.test_case "catches malformed interval" `Quick
          test_encoding_catches_malformed_interval;
        Alcotest.test_case "certifier audited end to end" `Slow
          test_certifier_runs_audited ] );
    ( "audit:symbolic",
      [ Alcotest.test_case "clean symbolic analyses" `Quick
          test_symbolic_check_clean;
        Alcotest.test_case "catches disjoint certified interval" `Quick
          test_symbolic_check_catches_disjoint_certified;
        Alcotest.test_case "empty meet diagnostic" `Quick
          test_symbolic_meet_store_empty ] ) ]
