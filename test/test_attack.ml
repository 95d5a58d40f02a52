(* Tests for FGSM, PGD and the dataset-sweep under-approximation. *)

let rng0 () = Random.State.make [| 77 |]

let small_net () =
  let rng = rng0 () in
  Nn.Network.make
    [ Nn.Layer.dense_random ~relu:true ~rng ~in_dim:3 ~out_dim:8 ();
      Nn.Layer.dense_random ~relu:true ~rng ~in_dim:8 ~out_dim:4 ();
      Nn.Layer.dense_random ~rng ~in_dim:4 ~out_dim:2 () ]

let test_fgsm_within_ball () =
  let net = small_net () in
  let x = [| 0.2; -0.3; 0.5 |] in
  let delta = 0.05 in
  let x' =
    Attack.Fgsm.against_output ~sign:1.0 net ~x ~delta ~j:0
  in
  Array.iteri
    (fun k v ->
      Alcotest.(check bool) "within ball" true
        (Float.abs (v -. x.(k)) <= delta +. 1e-12))
    x'

let test_fgsm_clips_domain () =
  let net = small_net () in
  let domain = Array.make 3 (Cert.Interval.make 0.0 1.0) in
  let x = [| 0.01; 0.99; 0.5 |] in
  let x' =
    Attack.Fgsm.against_output ~domain ~sign:1.0 net ~x ~delta:0.1 ~j:0
  in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "in domain" true (v >= 0.0 && v <= 1.0))
    x'

let test_fgsm_increases_objective () =
  (* on a linear network FGSM is exactly optimal *)
  let w = Linalg.Mat.of_arrays [| [| 2.0; -3.0; 0.5 |] |] in
  let net =
    Nn.Network.make [ Nn.Layer.dense ~weight:w ~bias:[| 0.0 |] () ]
  in
  let x = [| 0.0; 0.0; 0.0 |] in
  let delta = 0.1 in
  let x' = Attack.Fgsm.against_output ~sign:1.0 net ~x ~delta ~j:0 in
  let gain = (Nn.Network.forward net x').(0) -. (Nn.Network.forward net x).(0) in
  Alcotest.(check bool) "linear optimal" true
    (Float.abs (gain -. (delta *. 5.5)) < 1e-9)

let test_pgd_within_ball () =
  let net = small_net () in
  let x = [| 0.1; 0.2; -0.1 |] in
  let delta = 0.03 in
  (* max_output_variation internally projects; verify the variation is
     achievable by a point in the ball via sampling comparison *)
  let v =
    Attack.Pgd.max_output_variation ~seed:5 net ~x ~delta ~j:0
  in
  Alcotest.(check bool) "nonnegative" true (v >= 0.0);
  (* cannot exceed the exact local bound *)
  let base = (Nn.Network.forward net x).(0) in
  let r = Cert.Local.exact net ~x0:x ~delta in
  let lo = r.Cert.Local.range.(0).Cert.Interval.lo in
  let hi = r.Cert.Local.range.(0).Cert.Interval.hi in
  let max_possible = Float.max (hi -. base) (base -. lo) in
  Alcotest.(check bool) "pgd <= exact local" true (v <= max_possible +. 1e-6)

let test_pgd_beats_or_matches_random () =
  (* PGD should find at least as much variation as naive random search *)
  let net = small_net () in
  let x = [| 0.4; -0.2; 0.3 |] in
  let delta = 0.05 in
  let pgd =
    Attack.Pgd.max_output_variation
      ~config:{ Attack.Pgd.steps = 30; step_size = 0.25; restarts = 3 }
      ~seed:11 net ~x ~delta ~j:0
  in
  let rng = rng0 () in
  let base = (Nn.Network.forward net x).(0) in
  let random_best = ref 0.0 in
  for _ = 1 to 100 do
    let x' =
      Array.map
        (fun v -> v +. (delta *. (Random.State.float rng 2.0 -. 1.0)))
        x
    in
    let d = Float.abs ((Nn.Network.forward net x').(0) -. base) in
    if d > !random_best then random_best := d
  done;
  Alcotest.(check bool) "pgd >= random/2" true (pgd >= !random_best *. 0.5)

let test_global_under_below_exact () =
  let net = small_net () in
  let delta = 0.05 in
  let input = Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0 in
  let rng = rng0 () in
  let xs =
    Array.init 15 (fun _ ->
        Array.init 3 (fun _ -> Random.State.float rng 2.0 -. 1.0))
  in
  let under = Attack.Global_under.sweep ~seed:2 ~domain:input net ~xs ~delta in
  let exact = Cert.Exact.global_btne net ~input ~delta in
  for j = 0 to 1 do
    Alcotest.(check bool) "under <= exact" true
      (under.Attack.Global_under.eps_under.(j)
       <= exact.Cert.Exact.eps.(j) +. 1e-6)
  done;
  Array.iter
    (fun i -> Alcotest.(check bool) "worst sample recorded" true (i >= 0))
    under.Attack.Global_under.worst_sample

let test_global_under_max_samples () =
  let net = small_net () in
  let xs = Array.make 50 [| 0.0; 0.0; 0.0 |] in
  let r =
    Attack.Global_under.sweep ~seed:1 ~max_samples:3 net ~xs ~delta:0.01
  in
  Array.iter
    (fun i -> Alcotest.(check bool) "sample index < 3" true (i < 3))
    r.Attack.Global_under.worst_sample

let suites =
  [ ( "attack:fgsm",
      [ Alcotest.test_case "within ball" `Quick test_fgsm_within_ball;
        Alcotest.test_case "clips to domain" `Quick test_fgsm_clips_domain;
        Alcotest.test_case "optimal on linear nets" `Quick
          test_fgsm_increases_objective ] );
    ( "attack:pgd",
      [ Alcotest.test_case "within local exact bound" `Quick
          test_pgd_within_ball;
        Alcotest.test_case "beats random search" `Quick
          test_pgd_beats_or_matches_random ] );
    ( "attack:global-under",
      [ Alcotest.test_case "below exact global" `Quick
          test_global_under_below_exact;
        Alcotest.test_case "max_samples respected" `Quick
          test_global_under_max_samples ] ) ]
