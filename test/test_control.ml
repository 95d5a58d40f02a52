(* Tests for the LTI substrate, MPI invariant analysis and the
   closed-loop ACC simulation. *)

module Mat = Linalg.Mat

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let params = Control.Acc.default_params

let test_lti_step () =
  let sys = Control.Acc.system params in
  (* hand-computed one step from x = [0.1; 0.05], no errors *)
  let x' =
    Control.Lti.step sys ~x:[| 0.1; 0.05 |] ~est_err:[| 0.0; 0.0 |]
      ~w1:[| 0.0 |] ~w2:[| 0.0; 0.0 |]
  in
  let u = (0.3617 *. 0.1) +. (-0.8582 *. 0.05) in
  Alcotest.(check bool) "d component" true
    (feq x'.(0) (0.1 -. (0.1 *. 0.05) -. (0.005 *. u)));
  Alcotest.(check bool) "v component" true (feq x'.(1) (0.05 +. (0.1 *. u)))

let test_closed_loop_stable () =
  (* the nominal closed loop without disturbances must contract to the
     origin *)
  let sys = Control.Acc.system params in
  let x = ref [| 0.3; 0.1 |] in
  for _ = 1 to 500 do
    x :=
      Control.Lti.step sys ~x:!x ~est_err:[| 0.0; 0.0 |] ~w1:[| 0.0 |]
        ~w2:[| 0.0; 0.0 |]
  done;
  Alcotest.(check bool) "converged" true (Linalg.Vec.norm_inf !x < 0.01)

let test_mpi_monotone_in_dd () =
  let safe dd = (Control.Invariant.mpi_analysis params ~dd_max:dd).Control.Invariant.safe in
  Alcotest.(check bool) "safe at 0" true (safe 0.0);
  Alcotest.(check bool) "safe at 0.05" true (safe 0.05);
  Alcotest.(check bool) "unsafe at 0.5" false (safe 0.5)

let test_mpi_invariance_property () =
  (* points inside the invariant polytope stay inside after one worst
     case step *)
  let r = Control.Invariant.mpi_analysis params ~dd_max:0.05 in
  Alcotest.(check bool) "converged" true r.Control.Invariant.converged;
  Alcotest.(check bool) "safe" true r.Control.Invariant.safe;
  let inside x =
    List.for_all
      (fun (row, h) -> (row.(0) *. x.(0)) +. (row.(1) *. x.(1)) <= h +. 1e-7)
      r.Control.Invariant.constraints
  in
  let sys = Control.Acc.system params in
  let acl = Control.Lti.closed_loop_a sys in
  let verts = Control.Acc.disturbance_vertices params ~dd_max:0.05 in
  let rng = Random.State.make [| 8 |] in
  let s1, s2 = Control.Acc.safe_box params in
  let tried = ref 0 in
  while !tried < 100 do
    let x =
      [| (Random.State.float rng 2.0 -. 1.0) *. s1;
         (Random.State.float rng 2.0 -. 1.0) *. s2 |]
    in
    if inside x then begin
      incr tried;
      let ax = Mat.mul_vec acl x in
      List.iter
        (fun d ->
          let x' = Linalg.Vec.add ax d in
          if not (inside x') then
            Alcotest.failf
              "invariance violated: (%g,%g) -> (%g,%g) leaves the set"
              x.(0) x.(1) x'.(0) x'.(1))
        verts
    end
  done

let test_max_safe_dd_bracket () =
  let dd = Control.Invariant.max_safe_estimation_error params in
  Alcotest.(check bool) "positive" true (dd > 0.05);
  Alcotest.(check bool) "below 0.5" true (dd < 0.5);
  Alcotest.(check bool) "boundary safe" true
    (Control.Invariant.mpi_analysis params ~dd_max:dd).Control.Invariant.safe;
  Alcotest.(check bool) "just above unsafe" false
    (Control.Invariant.mpi_analysis params ~dd_max:(dd +. 0.01))
      .Control.Invariant.safe

let test_disturbance_vertices_count () =
  let verts = Control.Acc.disturbance_vertices params ~dd_max:0.1 in
  Alcotest.(check int) "16 vertices" 16 (List.length verts)

let test_safe_box () =
  let s1, s2 = Control.Acc.safe_box params in
  Alcotest.(check bool) "d half-width" true (feq s1 0.7);
  Alcotest.(check bool) "v half-width" true (feq s2 0.3)

(* closed loop with a trivial perfect estimator: build a tiny network
   that cannot perceive anything and verify the simulation API runs and
   reports sensible statistics *)
let test_simulation_runs () =
  let rng = Random.State.make [| 3 |] in
  let h = 6 and w = 12 in
  let n_pixels = 3 * h * w in
  let net =
    Nn.Network.make
      [ Nn.Layer.dense_random ~relu:true ~rng ~in_dim:n_pixels ~out_dim:4 ();
        Nn.Layer.dense_random ~rng ~in_dim:4 ~out_dim:1 () ]
  in
  let config =
    { Control.Closed_loop.default_config with
      Control.Closed_loop.episodes = 2;
      steps = 10;
      image_h = h;
      image_w = w }
  in
  let o = Control.Closed_loop.simulate params net config in
  Alcotest.(check int) "episodes" 2 o.Control.Closed_loop.episodes;
  Alcotest.(check int) "steps" 20 o.Control.Closed_loop.steps_total;
  Alcotest.(check bool) "max err finite" true
    (Float.is_finite o.Control.Closed_loop.max_est_err)

let test_simulation_wrong_input_dim () =
  let rng = Random.State.make [| 3 |] in
  let net =
    Nn.Network.make [ Nn.Layer.dense_random ~rng ~in_dim:5 ~out_dim:1 () ]
  in
  Alcotest.check_raises "bad dim"
    (Invalid_argument "Closed_loop.simulate: network input size") (fun () ->
      ignore
        (Control.Closed_loop.simulate params net
           Control.Closed_loop.default_config))

let suites =
  [ ( "control:lti",
      [ Alcotest.test_case "step" `Quick test_lti_step;
        Alcotest.test_case "closed loop stable" `Quick
          test_closed_loop_stable ] );
    ( "control:invariant",
      [ Alcotest.test_case "mpi monotone" `Slow test_mpi_monotone_in_dd;
        Alcotest.test_case "mpi invariance" `Slow
          test_mpi_invariance_property;
        Alcotest.test_case "max safe dd bracket" `Slow
          test_max_safe_dd_bracket;
        Alcotest.test_case "disturbance vertices" `Quick
          test_disturbance_vertices_count;
        Alcotest.test_case "safe box" `Quick test_safe_box ] );
    ( "control:closed-loop",
      [ Alcotest.test_case "simulation runs" `Quick test_simulation_runs;
        Alcotest.test_case "wrong input dim" `Quick
          test_simulation_wrong_input_dim ] ) ]
