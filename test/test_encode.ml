(* Direct tests of the MILP/LP encodings in Cert.Encode: the encoded
   relations must contain exactly (exact mode) or at least (relaxed
   mode) the true ReLU / ReLU-distance graphs. *)

module Model = Lp.Model
module Interval = Cert.Interval

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

(* one-layer helper network: y = w . x, relu *)
let one_layer_net w =
  let rows = Array.length w in
  Nn.Network.make
    [ Nn.Layer.dense ~relu:true ~weight:(Linalg.Mat.of_arrays w)
        ~bias:(Array.make rows 0.0) () ]

let bounds_for net ~lo ~hi ~delta =
  let b =
    Cert.Bounds.create net
      ~input:(Cert.Bounds.box_domain net ~lo ~hi)
      ~input_dist:(Cert.Bounds.uniform_delta net delta)
  in
  Cert.Interval_prop.propagate net b;
  b

(* brute-force the exact dx range of a 1-layer relu net over gridded
   inputs *)
let brute_dx_range net ~lo ~hi ~delta ~j ~grid =
  let dim = Nn.Network.input_dim net in
  let lo_v = ref infinity and hi_v = ref neg_infinity in
  let rec loop x d k =
    if k = dim then begin
      let xa = Array.of_list (List.rev x) in
      let xb =
        Array.mapi
          (fun i v -> Float.max lo (Float.min hi (v +. List.nth (List.rev d) i)))
          xa
      in
      let fa = (Nn.Network.forward net xa).(j)
      and fb = (Nn.Network.forward net xb).(j) in
      let dx = fb -. fa in
      if dx < !lo_v then lo_v := dx;
      if dx > !hi_v then hi_v := dx
    end
    else
      for i = 0 to grid do
        let v = lo +. ((hi -. lo) *. float_of_int i /. float_of_int grid) in
        for jd = 0 to 2 do
          let dd = delta *. (float_of_int jd -. 1.0) in
          loop (v :: x) (dd :: d) (k + 1)
        done
      done
  in
  loop [] [] 0;
  (!lo_v, !hi_v)

let test_itne_exact_single_layer () =
  let net = one_layer_net [| [| 1.0; -0.5 |] |] in
  let delta = 0.2 in
  let bounds = bounds_for net ~lo:(-1.0) ~hi:1.0 ~delta in
  let view = Cert.Subnet.full net in
  let enc =
    Cert.Encode.itne ~mode:Cert.Encode.Exact ~include_output_relu:true
      ~bounds view
  in
  let nv = Cert.Encode.itne_vars enc 0 0 in
  let dx = Option.get nv.Cert.Encode.dx in
  let solve dir =
    (Milp.solve ~objective:(dir, [ (dx, 1.0) ]) enc.Cert.Encode.model)
      .Milp.bound
  in
  let milp_hi = solve Model.Maximize and milp_lo = solve Model.Minimize in
  let brute_lo, brute_hi =
    brute_dx_range net ~lo:(-1.0) ~hi:1.0 ~delta ~j:0 ~grid:16
  in
  (* exact MILP must enclose the brute-force grid and be close to it *)
  Alcotest.(check bool) "hi encloses" true (milp_hi >= brute_hi -. 1e-7);
  Alcotest.(check bool) "lo encloses" true (milp_lo <= brute_lo +. 1e-7);
  Alcotest.(check bool) "hi tight" true (milp_hi <= brute_hi +. 0.05);
  Alcotest.(check bool) "lo tight" true (milp_lo >= brute_lo -. 0.05)

let test_relaxed_encloses_exact () =
  let net = one_layer_net [| [| 0.8; 0.6 |]; [| -0.7; 0.9 |] |] in
  let delta = 0.15 in
  let bounds = bounds_for net ~lo:(-1.0) ~hi:1.0 ~delta in
  let view = Cert.Subnet.full net in
  let range mode j =
    let enc =
      Cert.Encode.itne ~mode ~include_output_relu:true ~bounds view
    in
    let nv = Cert.Encode.itne_vars enc 0 j in
    let dx = Option.get nv.Cert.Encode.dx in
    let solve dir =
      (Milp.solve ~objective:(dir, [ (dx, 1.0) ]) enc.Cert.Encode.model)
        .Milp.bound
    in
    (solve Model.Minimize, solve Model.Maximize)
  in
  for j = 0 to 1 do
    let exact_lo, exact_hi = range Cert.Encode.Exact j in
    let relax_lo, relax_hi = range Cert.Encode.Relaxed j in
    Alcotest.(check bool) "relaxed hi >= exact hi" true
      (relax_hi >= exact_hi -. 1e-7);
    Alcotest.(check bool) "relaxed lo <= exact lo" true
      (relax_lo <= exact_lo +. 1e-7)
  done

let test_refined_equals_exact () =
  (* relaxing everything except the (refined) neuron itself on a
     single-layer net gives the exact answer *)
  let net = one_layer_net [| [| 1.0; 1.0 |] |] in
  let delta = 0.1 in
  let bounds = bounds_for net ~lo:(-1.0) ~hi:1.0 ~delta in
  let view = Cert.Subnet.full net in
  let enc_exact =
    Cert.Encode.itne ~mode:Cert.Encode.Exact ~include_output_relu:true
      ~bounds view
  in
  let enc_refined =
    Cert.Encode.itne ~refined:[ (0, 0) ] ~mode:Cert.Encode.Relaxed
      ~include_output_relu:true ~bounds view
  in
  let hi enc =
    let nv = Cert.Encode.itne_vars enc 0 0 in
    let dx = Option.get nv.Cert.Encode.dx in
    (Milp.solve ~objective:(Model.Maximize, [ (dx, 1.0) ])
       enc.Cert.Encode.model)
      .Milp.bound
  in
  Alcotest.(check bool) "refined = exact" true
    (feq ~eps:1e-6 (hi enc_exact) (hi enc_refined))

let test_btne_out_delta_terms () =
  let net = one_layer_net [| [| 1.0; 0.0 |] |] in
  let bounds = bounds_for net ~lo:(-1.0) ~hi:1.0 ~delta:0.1 in
  let view = Cert.Subnet.full net in
  let enc =
    Cert.Encode.btne ~link_input_dist:true ~mode:Cert.Encode.Exact ~bounds
      view
  in
  let terms = Cert.Encode.btne_out_delta enc 0 in
  Alcotest.(check int) "two terms" 2 (List.length terms);
  let coeffs = List.map snd terms in
  Alcotest.(check bool) "+1/-1" true
    (List.mem 1.0 coeffs && List.mem (-1.0) coeffs)

let test_unstable_relu_needs_finite_bounds () =
  (* encoding an unstable ReLU with infinite pre-activation range must
     be rejected rather than silently unsound *)
  let net = one_layer_net [| [| 1.0; 0.0 |] |] in
  let b =
    Cert.Bounds.create net
      ~input:(Cert.Bounds.box_domain net ~lo:(-1.0) ~hi:1.0)
      ~input_dist:(Cert.Bounds.uniform_delta net 0.1)
  in
  (* no propagation: layer intervals left at top *)
  let view = Cert.Subnet.full net in
  (try
     ignore
       (Cert.Encode.itne ~mode:Cert.Encode.Exact ~include_output_relu:true
          ~bounds:b view);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* a window's input intervals are the network input box when it starts
   at layer 0 and the previous layer's activation ranges otherwise *)
let test_input_intervals_of_view () =
  let net =
    Nn.Network.make
      [ Nn.Layer.dense ~relu:true
          ~weight:(Linalg.Mat.of_arrays [| [| 1.0; -1.0 |]; [| 2.0; 1.0 |] |])
          ~bias:[| 0.0; -0.5 |] ();
        Nn.Layer.dense ~relu:true
          ~weight:(Linalg.Mat.of_arrays [| [| 1.0; 1.0 |] |])
          ~bias:[| 0.0 |] () ]
  in
  let bounds = bounds_for net ~lo:(-2.0) ~hi:3.0 ~delta:0.25 in
  let same what a b =
    Alcotest.(check bool) what true (Interval.equal a b)
  in
  let first_of ~last =
    (Cert.Subnet.cone net ~last ~targets:[| 0 |] ~window:1).Cert.Subnet.first
  in
  let f0 = first_of ~last:0 in
  Alcotest.(check int) "window at the input" 0 f0;
  same "input interval" (Interval.make (-2.0) 3.0)
    (Cert.Bounds.val_in bounds f0 0);
  same "input dist interval" (Interval.make (-0.25) 0.25)
    (Cert.Bounds.dist_in bounds f0 1);
  let f1 = first_of ~last:1 in
  Alcotest.(check int) "interior window" 1 f1;
  for j = 0 to 1 do
    same "interior interval" bounds.Cert.Bounds.x.(0).(j)
      (Cert.Bounds.val_in bounds f1 j);
    same "interior dist interval" bounds.Cert.Bounds.dx.(0).(j)
      (Cert.Bounds.dist_in bounds f1 j)
  done;
  (* the interior lookup reads the activation ranges, not the input box *)
  Alcotest.(check bool) "interior differs from the input box" false
    (Interval.equal (Cert.Bounds.val_in bounds f1 1)
       (Cert.Bounds.val_in bounds f0 1))

let suites =
  [ ( "cert:encode",
      [ Alcotest.test_case "itne exact vs brute force" `Slow
          test_itne_exact_single_layer;
        Alcotest.test_case "relaxed encloses exact" `Quick
          test_relaxed_encloses_exact;
        Alcotest.test_case "refined equals exact" `Quick
          test_refined_equals_exact;
        Alcotest.test_case "out delta terms" `Quick
          test_btne_out_delta_terms;
        Alcotest.test_case "unbounded relu rejected" `Quick
          test_unstable_relu_needs_finite_bounds;
        Alcotest.test_case "view input intervals" `Quick
          test_input_intervals_of_view ] ) ]
